(* The traced replay: the requests of a traced batch run again
   in-process, in the daemon's call order, each call inside a
   benchmark-side span.  A request the daemon answered from its verbatim
   reply cache (meta.cache.source = "l1") replays only the decode and the
   encode; one answered by the content cache ("l2") adds the regex
   parse; a miss runs the whole chain, Serve.answer with spans (the
   chain the reference answers come from):

     decode -> Regex.parse -> Nfa.of_regex -> Roman.to_sws_pl ->
     Sws_pl.language_nfa -> Decision / Dfa / Compose -> encode *)

open Perfbench
module J = Obs.Json
module P = Server.Protocol
module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Lang = Automata.Lang
open Sws

type t = {
  spans : Spans.t;
  counts : (string, float list) Hashtbl.t;  (** per-call counts, by metric *)
}

let create () = { spans = Spans.create (); counts = Hashtbl.create 16 }

let count t name v =
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.counts name) in
  Hashtbl.replace t.counts name (float_of_int v :: prev)

let one ~req t (r : Gen.request) ~payload ~source ~reply =
  let span name f = Spans.with_span t.spans ~name ~req f in
  span "request" @@ fun () ->
  let j = span "obs.json_decode" (fun () -> J.of_string payload) in
  (match j with
  | Ok j -> ignore (span "server.request_of_json" (fun () -> P.request_of_json j))
  | Error _ -> ());
  (match source with
  | Some "l1" -> ()
  | Some "l2" ->
    List.iter
      (fun s -> ignore (span "automata.regex_parse" (fun () -> Regex.parse s)))
      (Gen.specs r)
  | _ -> (
    let sink = Engine.Stats.create () in
    let traced =
      {
        Serve.span =
          (fun name f ->
            if name <> "core.pl_equivalence" then span name f
            else begin
              let explored0 = Lang.states_explored_total () in
              let v = span name f in
              count t "automata.lang_states_explored" (Lang.states_explored_total () - explored0);
              v
            end);
      }
    in
    let on_sws sws =
      count t "core.sws_alphabet_size" (Sws_pl.alphabet_size sws);
      (* the daemon builds it inside Decision; timed here on its own *)
      ignore (span "core.sws_language_nfa" (fun () -> Sws_pl.language_nfa ~stats:sink sws))
    in
    ignore
      (Serve.answer ~s:traced
         ~on_nfa:(fun n -> count t "automata.nfa_states" (Nfa.num_states n))
         ~on_sws ~stats:sink r);
    (* the decision procedures' work; kprefix and compose count none *)
    match r with
    | Check _ | Equivalence _ ->
      count t "core.nodes_expanded" (Engine.Stats.nodes_expanded sink)
    | Kprefix _ | Compose _ -> ()));
  ignore (span "obs.json_encode" (fun () -> J.to_string reply))

let median_count t name =
  match Hashtbl.find_opt t.counts name with
  | Some (_ :: _ as l) -> Stats.median (Array.of_list l)
  | _ -> 0.
