(* The paper-cold workload's rows: every Table 1 / Table 2 / Figure 1
   series of the reproduction at the full sizes of [bench/main.ml].

   Each row builds its instance in [make] (set-up, untimed) and returns
   the thunk to time, which answers a compact verdict string.  Instances
   are rebuilt for every evaluation, so no per-instance memo (relation
   scan arrays, join indexes, the SWS automata chain) survives from one
   timed evaluation to the next; together with [Engine.set_caching false]
   this makes every evaluation cold. *)

module R = Relational
module Prop = Proplogic.Prop
module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
module Afa = Automata.Afa
open Sws

type group = Check | Equivalence | Compose | Kprefix | Run

let group_name = function
  | Check -> "check"
  | Equivalence -> "equivalence"
  | Compose -> "compose"
  | Kprefix -> "kprefix"
  | Run -> "run"

type row = {
  series : string;
  label : string;
  group : group;
  layer : string option;
      (** the per-layer metric this row stands for: set on the largest
          instance of a series *)
  expect : string option;  (** known verdict prefix, where one is known *)
  make : unit -> unit -> string;
}

(* ------------------------------------------------------------------ *)
(* Verdict strings                                                     *)
(* ------------------------------------------------------------------ *)

let outcome = function
  | Decision.Yes w -> Printf.sprintf "yes/%d" (List.length w)
  | Decision.No -> "no"
  | Decision.Exhausted _ -> "exhausted"

(* data-class outcomes: the witness is a database, not a word *)
let data_outcome = function
  | Decision.Yes _ -> "yes"
  | Decision.No -> "no"
  | Decision.Exhausted _ -> "exhausted"

let data_equiv_outcome = function
  | Decision.Equivalent -> "equivalent"
  | Decision.Inequivalent _ -> "inequivalent"
  | Decision.Equiv_exhausted _ -> "exhausted"

let equiv_outcome = function
  | Decision.Equivalent -> "equivalent"
  | Decision.Inequivalent w -> Printf.sprintf "inequivalent/%d" (List.length w)
  | Decision.Equiv_exhausted _ -> "exhausted"

let limit_name (e : Engine.exhausted) = Fmt.str "%a" Engine.pp_limit e.Engine.limit

(* ------------------------------------------------------------------ *)
(* Instance families (the ones bench/main.ml sweeps)                   *)
(* ------------------------------------------------------------------ *)

let random_cnf rng n_vars n_clauses =
  let lit () =
    let x = Prop.var (Printf.sprintf "x%d" (Random.State.int rng n_vars)) in
    if Random.State.bool rng then x else Prop.Not x
  in
  Prop.conj (List.init n_clauses (fun _ -> Prop.disj [ lit (); lit (); lit () ]))

(* "the k-th symbol from the end is 'a'": its minimal DFA needs 2^k states *)
let kth_from_end_nfa k =
  let edges =
    (0, 0, 0) :: (0, 1, 0) :: (0, 0, 1)
    :: List.concat_map (fun i -> [ (i, 0, i + 1); (i, 1, i + 1) ])
         (List.init (k - 1) (fun i -> i + 1))
  in
  Nfa.create ~num_states:(k + 1) ~alphabet_size:2 ~starts:[ 0 ] ~finals:[ k ]
    ~edges ~eps_edges:[]

let v = R.Term.var
let cq ?eqs ?neqs head body = R.Cq.make ?eqs ?neqs ~head ~body ()

(* binary-tree services of depth d: the unfolding has 2^d disjuncts *)
let tree_service depth =
  let phi = Sws_data.Q_cq (cq [ v "x" ] [ R.Atom.make Sws_data.in_rel [ v "x" ] ]) in
  let leaf =
    Sws_data.Q_cq
      (cq [ v "x"; v "y" ]
         [ R.Atom.make Sws_data.msg_rel [ v "x" ]; R.Atom.make "r" [ v "x"; v "y" ] ])
  in
  let union2 =
    Sws_data.Q_ucq
      (R.Ucq.make
         [
           cq [ v "x"; v "y" ] [ R.Atom.make "act1" [ v "x"; v "y" ] ];
           cq [ v "x"; v "y" ] [ R.Atom.make "act2" [ v "x"; v "y" ] ];
         ])
  in
  let rec rules level =
    let name = Printf.sprintf "n%d" level in
    if level = depth then [ (name, { Sws_def.succs = []; synth = leaf }) ]
    else
      let child = Printf.sprintf "n%d" (level + 1) in
      (name, { Sws_def.succs = [ (child, phi); (child, phi) ]; synth = union2 })
      :: rules (level + 1)
  in
  Sws_data.make ~db_schema:(R.Schema.of_list [ ("r", 2) ]) ~in_arity:1
    ~out_arity:2 ~start:"n0" ~rules:(rules 0)

(* "u has at least k elements" *)
let fo_sentence k =
  let xs = List.init k (fun i -> Printf.sprintf "x%d" i) in
  let distinct =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            if i < j then Some (R.Fo.neq (v (List.nth xs i)) (v (List.nth xs j)))
            else None)
          (List.init k Fun.id))
      (List.init k Fun.id)
  in
  R.Fo.exists_many xs
    (R.Fo.conj (List.map (fun x -> R.Fo.atom "u" [ v x ]) xs @ distinct))

let nfa2 s = Nfa.of_regex ~alphabet_size:2 (Regex.parse s)
let rep k s = String.concat "" (List.init k (fun _ -> s))

let chain_goal len =
  let atom i =
    R.Atom.make "e" [ v (Printf.sprintf "x%d" i); v (Printf.sprintf "x%d" (i + 1)) ]
  in
  R.Ucq.of_cq (cq [ v "x0"; v (Printf.sprintf "x%d" len) ] (List.init len atom))

let edge_schema = R.Schema.of_list [ ("e", 2) ]

let view2 =
  ( "v2",
    cq [ v "a"; v "c" ] [ R.Atom.make "e" [ v "a"; v "b" ]; R.Atom.make "e" [ v "b"; v "c" ] ] )

let view1 = ("v1", cq [ v "a"; v "b" ] [ R.Atom.make "e" [ v "a"; v "b" ] ])

let catalog n =
  let items = List.init n (fun i -> (i, 100 + (i mod 7))) in
  Travel.catalog_db ~airfares:items ~hotels:items ~tickets:items ~cars:items

let travel_request () =
  Travel.request ~air:[ 100 ] ~hotel:[ 101 ] ~ticket:[ 102 ] ~car:[ 103 ] ()

let cardinal r = Printf.sprintf "n=%d" (R.Relation.cardinal r)

let compose_or = function
  | Some { Compose.exact; mediator; _ } ->
    Printf.sprintf "found/exact=%b/%d" exact (Dfa.num_states mediator)
  | None -> "none"

let mdtb = function
  | Compose.Found plan -> Fmt.str "found/%a" Compose.pp_plan plan
  | No_mediator_within_bound e -> "none/" ^ limit_name e

let compose_cq = function
  | Compose.Cq_composed c -> Printf.sprintf "composed/%d" (List.length c.Compose.mediator_ops)
  | Cq_only_contained _ -> "contained"
  | Cq_no_mediator -> "none"

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

(* [series ~name ~group ~layer sizes f] makes one row per size; the last
   (largest) size carries [layer]. *)
let series ~name ~group ?layer ?expect sizes f =
  let last = List.length sizes - 1 in
  List.mapi
    (fun i (label, make) ->
      {
        series = name;
        label;
        group;
        layer = (if i = last then layer else None);
        expect;
        make;
      })
    (List.map f sizes)

(* The random instances are bench/main.ml's own: the same generator,
   seeded 20080611 and drawn in the same order, so the headline rows are
   the instances the reproduction reports.  A draw is replayed from a
   saved state, so every evaluation rebuilds the identical instance. *)
let rows () =
  let rng = Random.State.make [| 20080611 |] in
  let draw f =
    let st = Random.State.copy rng in
    ignore (f rng);
    fun () -> f (Random.State.copy st)
  in
  let cnf_ne = List.map (fun n -> (n, draw (fun r -> random_cnf r n (4 * n)))) [ 10; 20; 40; 80 ] in
  let cnf_eq = List.map (fun n -> (n, draw (fun r -> random_cnf r n (3 * n)))) [ 6; 10; 14; 18 ] in
  let sirups =
    List.map
      (fun n ->
        (n, draw (fun r -> Datalog.Sirup.same_generation r ~num_nodes:n ~num_edges:(2 * n))))
      [ 8; 16; 32; 64 ]
  in
  List.concat
    [
      series ~name:"t1.pl_nr.non_emptiness" ~group:Check
        ~layer:"proplogic.pl_nr_non_emptiness_ms" cnf_ne (fun (n, cnf) ->
          ( Printf.sprintf "%d vars, %d clauses" n (4 * n),
            fun () ->
              let sws = Reductions.sws_of_sat (cnf ()) in
              fun () -> outcome (Decision.pl_nr_non_emptiness sws) ));
      series ~name:"t1.pl_nr.equivalence" ~group:Equivalence
        ~layer:"proplogic.pl_nr_equivalence_ms" ~expect:"equivalent"
        cnf_eq (fun (n, cnf) ->
          ( Printf.sprintf "%d vars" n,
            fun () ->
              let f = cnf () in
              let s1 = Reductions.sws_of_sat f in
              let s2 = Reductions.sws_of_sat (Prop.simplify f) in
              fun () -> equiv_outcome (Decision.pl_nr_equivalence s1 s2) ));
      series ~name:"t1.pl.non_emptiness" ~group:Check
        ~layer:"automata.afa_non_emptiness_ms" ~expect:"yes" [ 4; 6; 8; 10; 12 ]
        (fun k ->
          ( Printf.sprintf "k = %d" k,
            fun () ->
              let sws = Reductions.sws_of_afa (Afa.of_nfa (kth_from_end_nfa k)) in
              fun () -> outcome (Decision.pl_non_emptiness sws) ));
      series ~name:"t1.pl.equivalence" ~group:Equivalence
        ~layer:"automata.afa_equivalence_ms" ~expect:"equivalent" [ 4; 6; 8 ]
        (fun k ->
          ( Printf.sprintf "k = %d" k,
            fun () ->
              let s = Reductions.sws_of_afa (Afa.of_nfa (kth_from_end_nfa k)) in
              fun () -> equiv_outcome (Decision.pl_equivalence s s) ));
      series ~name:"t1.cq_nr.non_emptiness" ~group:Check
        ~layer:"relational.cq_non_emptiness_ms" [ 2; 4; 6; 8 ] (fun d ->
          ( Printf.sprintf "depth %d" d,
            fun () ->
              let s = tree_service d in
              fun () -> data_outcome (Decision.cq_non_emptiness s) ));
      series ~name:"t1.cq_nr.equivalence" ~group:Equivalence
        ~layer:"relational.cq_equivalence_ms" ~expect:"equivalent" [ 1; 2; 3 ]
        (fun d ->
          ( Printf.sprintf "depth %d" d,
            fun () ->
              let s = tree_service d in
              fun () -> data_equiv_outcome (Decision.cq_equivalence s s) ));
      series ~name:"t1.cq_nr.validation" ~group:Check
        ~layer:"relational.cq_validation_ms" [ 1; 2; 3 ] (fun d ->
          ( Printf.sprintf "depth %d" d,
            fun () ->
              let s = tree_service d in
              let o =
                R.Relation.singleton (R.Tuple.of_list [ R.Value.int 1; R.Value.int 2 ])
              in
              fun () -> data_outcome (Decision.cq_validation s ~output:o) ));
      series ~name:"t1.cq.sirup_reduction" ~group:Check [ 2; 3 ] (fun n ->
          ( Printf.sprintf "%d nodes" n,
            fun () ->
              let i = R.Value.int in
              let edges = List.init n (fun k -> (i ((k + 1) mod n), i k)) in
              let sws =
                Reductions.sws_of_sg_sirup ~edges ~seed:(i 0, i 0)
                  ~goal:(i (n - 1), i (n - 1))
              in
              fun () ->
                data_outcome
                  (Decision.cq_non_emptiness
                     ~budget:(Engine.Budget.of_depth (n + 1))
                     sws) ));
      series ~name:"t1.cq.datalog_sirup" ~group:Check ~layer:"datalog.sirup_ms"
        sirups (fun (n, sirup) ->
          ( Printf.sprintf "%d nodes, %d edges" n (2 * n),
            fun () ->
              let inst = sirup () in
              fun () -> string_of_bool (Datalog.Sirup.accepts_with_edges inst) ));
      series ~name:"t1.fo.non_emptiness" ~group:Check
        ~layer:"relational.fo_non_emptiness_ms" ~expect:"yes" [ 1; 2; 3; 4 ]
        (fun k ->
          ( Printf.sprintf "|model| >= %d" k,
            fun () ->
              let svc =
                Reductions.sws_of_fo_sentence
                  ~db_schema:(R.Schema.of_list [ ("u", 1) ])
                  (fo_sentence k)
              in
              fun () ->
                data_outcome (Decision.fo_non_emptiness ~max_dom:k ~max_pool:(k + 1) svc) ));
      series ~name:"t2.mdt_or.exact" ~group:Compose ~layer:"core.compose_nfa_or_paper_ms"
        ~expect:"found/exact=true" [ 2; 4; 8; 12 ] (fun k ->
          ( Printf.sprintf "k = %d" k,
            fun () ->
              let goal = nfa2 (rep k "ab") in
              let components =
                [ ("c_ab", nfa2 "ab"); ("c_a", nfa2 "a"); ("c_b", nfa2 "b") ]
              in
              fun () -> compose_or (Compose.compose_nfa_or ~goal ~components ()) ));
      series ~name:"t2.mdt_or.no_mediator" ~group:Compose [ 2; 4; 8 ] (fun k ->
          ( Printf.sprintf "k = %d" k,
            fun () ->
              let goal = nfa2 (rep k "ab" ^ "a") in
              fun () ->
                compose_or
                  (Compose.compose_nfa_or ~goal ~components:[ ("c_ab", nfa2 "ab") ] ())
          ));
      series ~name:"t2.mdtb.bound" ~group:Compose ~layer:"core.compose_mdtb_ms"
        [ 1; 2; 3; 4 ] (fun b ->
          ( Printf.sprintf "b = %d" b,
            fun () ->
              let goal = nfa2 (rep b "ab") in
              let components = [ ("c_ab", nfa2 "ab"); ("c_ba", nfa2 "ba") ] in
              fun () ->
                mdtb
                  (Compose.compose_mdtb ~goal ~components
                     ~budget:(Engine.Budget.of_depth b) ()) ));
      series ~name:"t2.mdtb.components" ~group:Compose [ 1; 2; 3; 4 ] (fun m ->
          ( Printf.sprintf "%d components" m,
            fun () ->
              let components =
                List.init m (fun i ->
                    (Printf.sprintf "c%d" i, nfa2 (if i = 0 then "ab" else "ba")))
              in
              fun () ->
                mdtb
                  (Compose.compose_mdtb ~goal:(nfa2 "abba") ~components
                     ~budget:(Engine.Budget.of_depth 2) ()) ));
      series ~name:"t2.cq.view_rewriting" ~group:Compose
        ~layer:"relational.compose_cq_ms" [ 1; 2; 3 ] (fun k ->
          ( Printf.sprintf "chain length %d" (2 * k),
            fun () ->
              let goal = chain_goal (2 * k) in
              fun () ->
                compose_cq
                  (Compose.compose_cq ~max_atoms:(k + 1) ~db_schema:edge_schema
                     ~components:[ view2 ] goal) ));
      series ~name:"t2.cq.view_rewriting_2views" ~group:Compose [ 1; 2 ] (fun k ->
          ( Printf.sprintf "chain length %d" (2 * k),
            fun () ->
              let goal = chain_goal (2 * k) in
              fun () ->
                compose_cq
                  (Compose.compose_cq ~max_atoms:(k + 1) ~db_schema:edge_schema
                     ~components:[ view2; view1 ] goal) ));
      series ~name:"t2.kprefix" ~group:Kprefix ~layer:"core.k_prefix_bound_paper_ms"
        [ 2; 4; 8; 16 ] (fun k ->
          ( Printf.sprintf "k = %d" (2 * k),
            fun () ->
              let dfa = Dfa.of_nfa (nfa2 (rep k "ab" ^ "(a|b)*")) in
              fun () ->
                match Compose.k_prefix_bound dfa with
                | Some k -> Printf.sprintf "k=%d" k
                | None -> "none" ));
      series ~name:"t2.uc2rpq.rewriting" ~group:Compose
        ~layer:"rewriting.regex_rewrite_ms" [ 2; 4; 8; 16 ] (fun k ->
          ( Printf.sprintf "path length %d" k,
            fun () ->
              let target = nfa2 (rep k "a") in
              let views = [ nfa2 "a"; nfa2 "aa" ] in
              fun () ->
                match Rewriting.Regex_rewrite.rewrite ~target ~views () with
                | Rewriting.Regex_rewrite.Exact d ->
                  Printf.sprintf "exact/%d" (Dfa.num_states d)
                | Maximal d -> Printf.sprintf "maximal/%d" (Dfa.num_states d)
                | Empty_rewriting -> "empty" ));
      series ~name:"t2.undecidable.bounded_search" ~group:Compose
        ~layer:"core.compose_bounded_search_ms" [ 1; 2; 3 ] (fun m ->
          ( Printf.sprintf "%d components" m,
            fun () ->
              let svc =
                Compose.query_service ~db_schema:edge_schema
                  (cq [ v "x"; v "y" ] [ R.Atom.make "e" [ v "x"; v "y" ] ])
              in
              let components = List.init m (fun i -> (Printf.sprintf "c%d" i, svc)) in
              fun () ->
                match
                  Compose.compose_bounded_search
                    ~budget:(Engine.Budget.of_nodes 20) ~db_schema:edge_schema
                    ~goal:svc ~components ()
                with
                | Compose.Candidate _ -> "candidate"
                | None_within_bound e -> "none/" ^ limit_name e ));
      series ~name:"f1.travel.parallel" ~group:Run ~layer:"core.travel_parallel_ms"
        [ 4; 16; 64; 128 ] (fun n ->
          ( Printf.sprintf "%d items" n,
            fun () ->
              let db = catalog n and req = travel_request () in
              fun () -> cardinal (Travel.booked db req) ));
      series ~name:"f1.travel.sequential" ~group:Run
        ~layer:"core.travel_sequential_ms" [ 4; 16; 64; 128 ] (fun n ->
          ( Printf.sprintf "%d items" n,
            fun () ->
              let db = catalog n and req = travel_request () in
              fun () -> cardinal (Travel.booked_sequential db req) ));
      series ~name:"f1.travel.mediator" ~group:Run ~layer:"core.travel_mediator_ms"
        [ 4; 16; 64 ] (fun n ->
          ( Printf.sprintf "%d items" n,
            fun () ->
              let db = catalog n and req = travel_request () in
              fun () -> cardinal (Travel.booked_via_mediator db req) ));
      series ~name:"f1.travel.min_cost" ~group:Run ~layer:"core.travel_priced_ms"
        [ 4; 16; 64 ] (fun n ->
          ( Printf.sprintf "%d items" n,
            fun () ->
              let db = catalog n in
              let req =
                Travel.request ~air:[ 100; 101 ] ~hotel:[ 100; 101 ]
                  ~ticket:[ 100; 101 ] ()
              in
              fun () -> cardinal (Travel.booked_min_cost db req) ));
    ]

