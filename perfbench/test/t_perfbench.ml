(* Tests for the benchmark's own arithmetic and generators. *)

open Perfbench

let floats = Alcotest.(float 1e-9)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let quantiles () =
  Alcotest.check floats "median of 1..101" 51. (Stats.median (ramp 101));
  Alcotest.check floats "median of 1..4 interpolates" 2.5 (Stats.median (ramp 4));
  Alcotest.check floats "q99 of 1..101" 100.
    (Stats.quantile_sorted (ramp 101) 0.99)

let p99_refused_below_ten_beyond () =
  let beyond a v = Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 a in
  (match Stats.percentile (ramp 1000) 0.99 with
  | Some v -> Alcotest.(check bool) "10+ samples beyond" true (beyond (ramp 1000) v >= 10)
  | None -> Alcotest.fail "1000 samples support a p99");
  Alcotest.(check (option floats)) "900 samples leave 9 beyond" None
    (Stats.percentile (ramp 900) 0.99);
  Alcotest.(check (option floats)) "500 samples" None (Stats.percentile (ramp 500) 0.99);
  Alcotest.(check (option floats)) "a constant sample has no tail" None
    (Stats.percentile (Array.make 5000 1.) 0.99);
  (* the order of the samples does not matter *)
  let shuffled = Array.init 1000 (fun i -> float_of_int ((i * 7919) mod 1000)) in
  Alcotest.(check (option floats)) "unsorted input"
    (Stats.percentile (Array.init 1000 float_of_int) 0.99)
    (Stats.percentile shuffled 0.99)

let geomean () =
  Alcotest.check floats "geomean 1, 100" 10. (Stats.geomean [| 1.; 100. |])

(* A slow machine (units above the reference) scales times down, by the
   median unit: one stray unit does not move it. *)
let calib_factor () =
  Alcotest.check floats "units at the reference" 1.
    (Calib.factor (Array.make 3 Calib.reference_ms));
  Alcotest.check floats "units twice as slow halve the times" 0.5
    (Calib.factor [| 2. *. Calib.reference_ms; 2. *. Calib.reference_ms; 100. |]);
  Alcotest.(check bool) "a unit takes time" true (Array.for_all (fun u -> u > 0.) (Calib.measure 2))

(* ------------------------------------------------------------------ *)
(* failed_share                                                        *)
(* ------------------------------------------------------------------ *)

let failed_share () =
  let t = Stats.tally () in
  for _ = 1 to 7 do Stats.record t `Ok done;
  Stats.record t `Error;
  Stats.record t `Exhausted;
  Stats.record t `Transport;
  Stats.mark_wrong t;
  Alcotest.(check int) "attempted" 10 t.attempted;
  Alcotest.(check int) "ok" 6 t.ok;
  Alcotest.(check int) "failed: error + exhausted + transport + wrong" 4 (Stats.failed t);
  Alcotest.check floats "share" 0.4 (Stats.failed_share t);
  Alcotest.check floats "nothing attempted" 0. (Stats.failed_share (Stats.tally ()))

(* ------------------------------------------------------------------ *)
(* Self time                                                           *)
(* ------------------------------------------------------------------ *)

let self_of spans name =
  let _, self = List.find (fun ((s : Spans.span), _) -> s.name = name) (Spans.self_times spans) in
  Int64.to_int self

let self_times () =
  let t = Spans.create () in
  let add name parent a b =
    Spans.add t ~name ~req:0 ~parent ~start_ns:(Int64.of_int a) ~stop_ns:(Int64.of_int b)
  in
  let root = add "root" None 0 100 in
  let a = add "a" (Some root) 10 40 in
  let _b = add "b" (Some root) 30 60 in
  let _c = add "c" (Some a) 15 20 in
  let _d = add "d" (Some root) 90 120 in
  let spans = Spans.spans t in
  (* children a, b overlap on 30..40 and d sticks out past the root:
     covered = [10, 60] + [90, 100] = 60 *)
  Alcotest.(check int) "root" 40 (self_of spans "root");
  Alcotest.(check int) "a minus its child c" 25 (self_of spans "a");
  Alcotest.(check int) "b" 30 (self_of spans "b");
  Alcotest.(check int) "leaf c" 5 (self_of spans "c");
  Alcotest.(check int) "leaf d" 30 (self_of spans "d")

let with_span_nesting () =
  let t = Spans.create () in
  Spans.with_span t ~name:"outer" ~req:7 (fun () ->
      Spans.with_span t ~name:"inner" ~req:7 (fun () -> ());
      Spans.with_span t ~name:"inner" ~req:7 (fun () -> ()));
  let spans = Spans.spans t in
  let outer = List.find (fun (s : Spans.span) -> s.name = "outer") spans in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  List.iter
    (fun (s : Spans.span) ->
      Alcotest.(check int) "request id" 7 s.req;
      if s.name = "inner" then
        Alcotest.(check (option int)) "parent" (Some outer.id) s.parent)
    spans;
  List.iter
    (fun ((s : Spans.span), self) ->
      Alcotest.(check bool) (s.name ^ " self time within its duration") true
        (Int64.compare self 0L >= 0 && Int64.compare self (Int64.sub s.stop_ns s.start_ns) <= 0))
    (Spans.self_times spans)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let take w seed n = Gen.take n (Gen.stream w ~seed)

let same_seed_same_requests () =
  List.iter
    (fun w ->
      Alcotest.(check bool) "same seed" true (take w 5 300 = take w 5 300);
      Alcotest.(check bool) "another seed" false (take w 5 300 = take w 6 300))
    [ Gen.Narrow; Gen.Wide; Gen.Hot ]

let cold_workloads_never_repeat () =
  List.iter
    (fun w ->
      let keys = List.map Gen.key (take w 11 3000) in
      Alcotest.(check int) "distinct contents" 3000
        (List.length (List.sort_uniq compare keys)))
    [ Gen.Narrow; Gen.Wide ]

let hot_cycles_sixteen () =
  let reqs = take Gen.Hot 3 64 in
  Alcotest.(check int) "16 distinct" 16 (List.length (List.sort_uniq compare reqs));
  Alcotest.(check bool) "cycle" true (List.filteri (fun i _ -> i < 16) reqs = List.filteri (fun i _ -> i >= 48) reqs)

let requests_parse () =
  List.iter
    (fun r -> List.iter (fun s -> ignore (Automata.Regex.parse s)) (Gen.specs r))
    (take Gen.Narrow 2 500 @ take Gen.Wide 2 500)

let wide_letters () =
  (* check and equivalence requests reach letter index 8 to 10 *)
  List.iter
    (fun r ->
      match r with
      | Gen.Check _ | Gen.Equivalence _ ->
        let top =
          List.fold_left
            (fun m s -> max m (Automata.Regex.max_symbol (Automata.Regex.parse s)))
            0 (Gen.specs r)
        in
        Alcotest.(check bool) "top letter in 8..10" true (top >= 8 && top <= 10)
      | _ -> ())
    (take Gen.Wide 4 600)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quantiles" `Quick quantiles;
          Alcotest.test_case "p99 refused below 10 samples beyond" `Quick
            p99_refused_below_ten_beyond;
          Alcotest.test_case "geomean" `Quick geomean;
          Alcotest.test_case "calibration factor" `Quick calib_factor;
          Alcotest.test_case "failed_share counting" `Quick failed_share;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time of nested spans" `Quick self_times;
          Alcotest.test_case "with_span nesting" `Quick with_span_nesting;
        ] );
      ( "gen",
        [
          Alcotest.test_case "same seed, same requests" `Quick same_seed_same_requests;
          Alcotest.test_case "cold workloads never repeat" `Quick cold_workloads_never_repeat;
          Alcotest.test_case "hot cycles 16 requests" `Quick hot_cycles_sixteen;
          Alcotest.test_case "requests parse" `Quick requests_parse;
          Alcotest.test_case "wide letters reach 8-10" `Quick wide_letters;
        ] );
    ]
