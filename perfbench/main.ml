(* The benchmark program.

     main.exe --workload serve-narrow --seed 1 --seconds 10 --trace 0 \
              --swsd _build/default/bin/swsd.exe --out _build/perfbench

   (perfbench/run.py builds both executables and passes these.)

   Untraced runs (--trace 0) print the end-to-end metrics; traced runs
   (--trace 1) print the per-layer metrics and the tracing overhead.  The
   last line of standard output is the result object. *)

open Perfbench
module J = Obs.Json
open Sws

let now_s = Obs.Clock.now_s

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let usage =
  "main.exe --workload (serve-narrow|serve-wide|serve-hot|paper-cold) --seed N \
   --seconds S --trace (0|1) --swsd PATH --out DIR [--nproc N]"

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      Hashtbl.replace tbl k v;
      go rest
    | [] -> ()
    | _ -> die "usage: %s" usage
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg k =
  match Hashtbl.find_opt args k with Some v -> v | None -> die "missing %s\nusage: %s" k usage

let int_arg k =
  match int_of_string_opt (arg k) with Some n -> n | None -> die "%s wants an integer" k

let workload = arg "--workload"
let seed = int_arg "--seed"
let seconds = float_of_int (int_arg "--seconds")

let traced =
  match arg "--trace" with "0" -> false | "1" -> true | _ -> die "--trace wants 0 or 1"

let out_dir = arg "--out"

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics
let tally = Stats.tally ()

let emit () =
  let ms = List.rev !metrics in
  Printf.printf "\n%-34s %16s  %s\n" "metric" "value" "unit";
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %16.6g  %s\n" n v u) ms;
  Printf.printf "failed_share %.6g (%d of %d attempted: %d error, %d exhausted, %d transport, %d wrong)\n"
    (Stats.failed_share tally) (Stats.failed tally) tally.attempted tally.error
    tally.exhausted tally.transport tally.wrong;
  let result =
    J.Obj
      [
        ("correct", J.Bool (tally.wrong = 0));
        ("attempted", J.Int tally.attempted);
        ("failed", J.Int (Stats.failed tally));
        ( "metrics",
          J.Obj
            (List.map
               (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
               ms) );
      ]
  in
  print_endline (J.to_string result)

let median_of l = Stats.median (Array.of_list l)

(* ------------------------------------------------------------------ *)
(* Serving workloads                                                   *)
(* ------------------------------------------------------------------ *)

let swsd () = arg "--swsd"
let sock = Filename.concat out_dir "swsd.sock"

(* Requests per batch: each batch is one fresh daemon answering a fixed
   number of requests, so memory readings are work-bounded even though a
   run is time-bounded (swsd's RSS grows with every request served).
   serve-hot first sends its 16 requests once, untimed, so that every
   timed request is answered from the reply cache. *)
let batch_size = function Gen.Hot -> 50_000 | Narrow -> 1_000 | Wide -> 250

(* The run's distinct requests and their payloads. *)
type table = {
  mutable reqs : Gen.request array;
  mutable plain : string array;  (** payload without meta *)
  mutable with_meta : string array;
}

let table_fill t next n =
  let fresh = Array.init n (fun _ -> next ()) in
  let base = Array.length t.reqs in
  t.reqs <- Array.append t.reqs fresh;
  let payload meta i r = Serve.request_payload ~id:(base + i) ~meta (Gen.meth r) (Serve.params r) in
  t.plain <- Array.append t.plain (Array.mapi (payload false) fresh);
  t.with_meta <- Array.append t.with_meta (Array.mapi (payload true) fresh);
  Array.init n (fun i -> base + i)

let next_order w t next =
  match w with
  | Gen.Hot -> Array.init (batch_size w) (fun k -> k mod Array.length t.reqs)
  | _ -> table_fill t next (batch_size w)

(* On the cold workloads a reply-cache hit proves the generator repeated
   a request: the run is void. *)
let guard w (b : Serve.batch) =
  if w <> Gen.Hot then begin
    let hits = Serve.gauge ~only:Serve.is_reply_class "hits" b.cache in
    if hits > 0 then begin
      Printf.eprintf "guard: %d reply-cache hits on a cold workload; the run is void\n" hits;
      exit 3
    end
  end

(* Check every reply against the reference, the untimed warm-up ones
   too; returns the parsed warm-up and timed replies. *)
let check_replies t (refs : (int, string option) Hashtbl.t) (b : Serve.batch) =
  let check = Array.map
    (fun (r : Serve.reply) ->
      let meth = Gen.meth t.reqs.(r.req) in
      let p = Serve.parse_reply meth r.raw in
      Stats.record tally p.status;
      (if p.status = `Ok then
         match Hashtbl.find refs r.req with
         | Some a when a = p.answer -> ()
         | expected ->
           Stats.mark_wrong tally;
           Printf.eprintf "mismatch on %s #%d: swsd %S, reference %s\n" meth r.req p.answer
             (match expected with Some a -> Printf.sprintf "%S" a | None -> "exhausted"));
      p)
  in
  let warm = check b.warm in
  (warm, check b.replies)

(* Reference answers for the requests that have none yet. *)
let add_references t refs =
  Serve.with_reference_config (fun () ->
      Array.iteri
        (fun i r -> if not (Hashtbl.mem refs i) then Hashtbl.replace refs i (Serve.answer r))
        t.reqs)

let methods = [ "check"; "equivalence"; "compose"; "kprefix" ]

(* A batch's throughput at the reference speed. *)
let throughput ((b : Serve.batch), speed) = float_of_int (Array.length b.replies) /. (b.wall_s *. speed)

(* The end-to-end metrics of an untraced serving run; every time is
   scaled to the reference speed by its batch's factor. *)
let serve_e2e t ~setups (batches : (Serve.batch * float) list) =
  let all =
    List.concat_map
      (fun ((b : Serve.batch), speed) ->
        Array.to_list (Array.map (fun (r : Serve.reply) -> (r.req, r.ms *. speed)) b.replies))
      batches
  in
  let ms = Array.of_list (List.map snd all) in
  let p50 m =
    median_of (List.filter_map (fun (req, ms) -> if Gen.meth t.reqs.(req) = m then Some ms else None) all)
  in
  let p50s = List.map (fun m -> (m, p50 m)) methods in
  metric "setup_s" "s" (median_of setups);
  metric "throughput_rps" "1/s" (median_of (List.map throughput batches));
  metric "latency_p99_ms" "ms"
    (match Stats.percentile ms 0.99 with Some v -> v | None -> assert false);
  List.iter (fun (m, v) -> metric (m ^ "_p50_ms") "ms" v) p50s;
  metric "peak_rss_mb" "MiB"
    (median_of (List.map (fun ((b : Serve.batch), _) -> float_of_int b.peak_rss_kb /. 1024.) batches));
  metric "total_s" "s" (median_of (List.map (fun ((b : Serve.batch), speed) -> b.wall_s *. speed) batches));
  metric "geomean_ms" "ms" (Stats.geomean (Array.of_list (List.map snd p50s)))

let p99_ready batches =
  let ms =
    Array.concat (List.map (fun (b : Serve.batch) -> Array.map (fun (r : Serve.reply) -> r.ms) b.replies) batches)
  in
  Stats.percentile ms 0.99 <> None

(* The traced replay of the first traced batch, from its warm-up on, at
   most 2000 requests.  It runs before any reference answer is computed
   in this process, so Lang's process-wide antichain peak, a maximum
   never reset, reads the largest exploration of the replayed requests
   alone. *)
let replay t (b : Serve.batch) =
  if Automata.Lang.antichain_peak () <> 0 then
    die "replay: the Lang gauges moved before the replay";
  let sent = Array.to_list b.warm @ Array.to_list b.replies |> List.filteri (fun k _ -> k < 2000) in
  let rp = Replay.create () in
  Engine.cache_clear_all ();
  List.iteri
    (fun k (r : Serve.reply) ->
      let meth = Gen.meth t.reqs.(r.req) in
      match Option.map J.of_string r.raw with
      | Some (Ok reply) ->
        Replay.one ~req:k rp t.reqs.(r.req) ~payload:t.with_meta.(r.req)
          ~source:(Serve.parse_reply meth r.raw).source ~reply
      | _ -> ())
    sent;
  (rp, List.length sent, Automata.Lang.antichain_peak ())

(* Per-layer metrics of a traced serving run: the wire numbers from the
   replies' meta, the call-level ones from the in-process replay. *)
let serve_layers ((rp : Replay.t), replayed, antichain_peak)
    (traced : (Serve.batch * (Serve.parsed array * Serve.parsed array)) list) =
  let parsed = List.concat_map (fun (_, (_, p)) -> Array.to_list p) traced in
  let replies = List.concat_map (fun ((b : Serve.batch), _) -> Array.to_list b.replies) traced in
  let handle = List.filter_map (fun (p : Serve.parsed) -> p.handle_ms) parsed in
  let wire =
    List.filter_map Fun.id
      (List.map2
         (fun (r : Serve.reply) (p : Serve.parsed) ->
           Option.map (fun h -> (r.ms -. h) *. 1e3) p.handle_ms)
         replies parsed)
  in
  let n = float_of_int (List.length parsed) in
  let share src =
    float_of_int (List.length (List.filter (fun (p : Serve.parsed) -> p.source = Some src) parsed)) /. n
  in
  let memo_h = List.fold_left (fun a (p : Serve.parsed) -> a + p.memo_hits) 0 parsed in
  let memo_m = List.fold_left (fun a (p : Serve.parsed) -> a + p.memo_misses) 0 parsed in
  let spans = Spans.spans rp.spans in
  let self = Spans.self_by_name spans in
  let self_med name = match List.assoc_opt name self with Some a -> Stats.median a | None -> 0. in
  let us name = metric (name ^ "_us") "us" (self_med name) in
  let ms name = metric (name ^ "_ms") "ms" (self_med name /. 1e3) in
  metric "server.handle_us" "us" (median_of (List.map (fun h -> h *. 1e3) handle));
  metric "server.wire_us" "us" (median_of wire);
  us "obs.json_decode";
  us "server.request_of_json";
  us "obs.json_encode";
  metric "server.l1_hit_ratio" "ratio" (share "l1");
  metric "server.l2_hit_ratio" "ratio" (share "l2");
  metric "server.rss_kb_per_kreq" "KiB/kreq"
    (median_of
       (List.map
          (fun ((b : Serve.batch), _) ->
            float_of_int b.rss_growth_kb /. (float_of_int (Array.length b.replies) /. 1e3))
          traced));
  metric "cache.bytes" "bytes"
    (median_of (List.map (fun ((b : Serve.batch), _) -> float_of_int (Serve.gauge "bytes" b.cache)) traced));
  metric "cache.evictions" "count"
    (median_of
       (List.map (fun ((b : Serve.batch), _) -> float_of_int (Serve.gauge "evictions" b.cache)) traced));
  metric "cache.memo_hit_ratio" "ratio"
    (if memo_h + memo_m = 0 then 0. else float_of_int memo_h /. float_of_int (memo_h + memo_m));
  us "automata.regex_parse";
  us "automata.nfa_of_regex";
  metric "automata.nfa_states" "count" (Replay.median_count rp "automata.nfa_states");
  ms "automata.dfa_of_nfa";
  metric "automata.lang_states_explored" "count"
    (Replay.median_count rp "automata.lang_states_explored");
  metric "automata.antichain_peak" "count" (float_of_int antichain_peak);
  metric "core.sws_alphabet_size" "count" (Replay.median_count rp "core.sws_alphabet_size");
  us "core.roman_to_sws_pl";
  ms "core.sws_language_nfa";
  ms "core.pl_non_emptiness";
  ms "core.pl_validation";
  ms "core.pl_equivalence";
  ms "core.k_prefix_bound";
  ms "core.compose_nfa_or";
  metric "core.nodes_expanded" "count" (Replay.median_count rp "core.nodes_expanded");
  (* where the replay's time went, by self time *)
  Printf.printf "\nreplay of %d requests, self time by span:\n" replayed;
  let total = List.fold_left (fun a (_, v) -> a +. Array.fold_left ( +. ) 0. v) 0. self in
  List.iter
    (fun (name, v) ->
      let s = Array.fold_left ( +. ) 0. v in
      Printf.printf "  %-28s %7d calls %12.1f us %6.1f%%\n" name (Array.length v) s
        (100. *. s /. total))
    self;
  Spans.write_file spans (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed))

let serve_run w ~seconds ~traced =
  let t = { reqs = [||]; plain = [||]; with_meta = [||] } in
  let next = Gen.stream w ~seed in
  if w = Gen.Hot then ignore (table_fill t next 16);
  let refs = Hashtbl.create 1024 in
  let measured = ref 0. in
  let untraced = ref [] and with_meta = ref [] and replayed = ref None in
  let setups = ref [] and speeds = ref [] in
  (* Between two batches, untimed, the new requests get their reference
     answers and the batch's replies are checked: the measured time is
     spread over the whole run, which evens out the machine's own speed
     swings (they last seconds to tens of seconds). *)
  let batch ~meta =
    let order = next_order w t next in
    let warmup = if w = Gen.Hot then Array.init 16 Fun.id else [||] in
    let before = Calib.measure 8 in
    let b =
      Serve.run_batch ~swsd:(swsd ()) ~sock ~warmup
        (if meta then t.with_meta else t.plain)
        order
    in
    guard w b;
    measured := !measured +. b.wall_s;
    if meta && !replayed = None then replayed := Some (replay t b);
    (* set-up alone, a few more times per batch: a daemon's start-up is a
       few milliseconds, and a handful of batches is too few samples *)
    let batch_setups =
      b.setup_s
      :: List.init 8 (fun _ ->
             let d = Serve.spawn ~swsd:(swsd ()) ~sock in
             Serve.stop d;
             d.setup_s)
    in
    let speed = Calib.factor (Array.append before (Calib.measure 8)) in
    setups := List.map (fun s -> s *. speed) batch_setups @ !setups;
    speeds := speed :: !speeds;
    add_references t refs;
    ((b, speed), check_replies t refs b)
  in
  (* untraced runs measure; traced runs alternate traced and untraced
     batches so the overhead compares like with like, traced first so
     that the replay precedes every reference answer *)
  let rec loop () =
    if traced then with_meta := batch ~meta:true :: !with_meta;
    untraced := batch ~meta:false :: !untraced;
    let enough =
      !measured >= seconds
      && p99_ready (List.map (fun ((b, _), _) -> b) !untraced)
      && ((not traced) || List.length !with_meta >= 2)
    in
    if not enough then loop ()
  in
  loop ();
  let untraced = List.rev_map fst !untraced and checked = List.rev !with_meta in
  let with_meta = List.map fst checked in
  Printf.printf "speed factors (to a %g ms calibration unit): %s\n" Calib.reference_ms
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !speeds));
  Printf.printf "%s seed %d: %d batches of %d requests (%d distinct), %d replies\n"
    (match w with Gen.Narrow -> "serve-narrow" | Wide -> "serve-wide" | Hot -> "serve-hot") seed (List.length untraced) (batch_size w) (Array.length t.reqs) tally.attempted;
  if not traced then serve_e2e t ~setups:!setups untraced
  else begin
    serve_layers (Option.get !replayed) (List.map (fun ((b, _), p) -> (b, p)) checked);
    let tput bs = median_of (List.map throughput bs) in
    metric "trace.overhead_pct" "%" (100. *. ((tput untraced /. tput with_meta) -. 1.))
  end

(* ------------------------------------------------------------------ *)
(* paper-cold                                                          *)
(* ------------------------------------------------------------------ *)

let time_ms f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, Obs.Clock.ns_to_ms (Obs.Clock.elapsed_ns t0))

(* One cold evaluation: a fresh instance, empty caches. *)
let cold (row : Paper.row) =
  let thunk = row.make () in
  Engine.cache_clear_all ();
  time_ms thunk

let paper_reference rows =
  List.map
    (fun (row : Paper.row) ->
      let v = (row.make ()) () in
      (match row.expect with
      | Some e when not (String.starts_with ~prefix:e v) ->
        Printf.eprintf "paper row %s / %s: verdict %S, expected %S\n" row.series row.label v e;
        Stats.record tally `Ok;
        Stats.mark_wrong tally
      | _ -> ());
      v)
    rows

let check_verdict (row : Paper.row) ~expected v =
  Stats.record tally `Ok;
  if v <> expected then begin
    Stats.mark_wrong tally;
    Printf.eprintf "paper row %s / %s: verdict %S, reference %S\n" row.series row.label v expected
  end

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* A row's sample in one pass: the median of as many cold evaluations as
   fit in 10 ms (at most 50), so sub-millisecond rows are not one noisy
   reading, scaled to the reference speed by the last 8 calibration
   units: two timed just before the row and two just after, each pair
   from a compacted heap.  The compaction also keeps the row's peak
   memory independent of which rows ran before it in the shuffled
   order. *)
let units = ref [||]

let calibrate () =
  Gc.compact ();
  let recent = Array.append (Calib.measure 2) !units in
  units := Array.sub recent 0 (min 8 (Array.length recent))

let row_sample row ~expected =
  calibrate ();
  let rec go acc spent n =
    if n >= 50 || (n > 0 && spent >= 10.) then acc
    else
      let v, ms = cold row in
      check_verdict row ~expected v;
      go (ms :: acc) (spent +. ms) (n + 1)
  in
  let raw = median_of (go [] 0. 0) in
  calibrate ();
  raw *. Calib.factor !units

let paper_rows () =
  let rows = Array.of_list (Paper.rows ()) in
  (* set-up: generating every instance, several times, each from a
     compacted heap so that the repetitions do not slow each other *)
  let setup =
    List.init 31 (fun _ ->
        Gc.compact ();
        snd (time_ms (fun () -> Array.iter (fun (r : Paper.row) -> ignore (r.make () : unit -> string)) rows)) /. 1e3)
  in
  (rows, median_of setup)

let paper_e2e () =
  let before = Calib.measure 8 in
  let rows, setup_s = paper_rows () in
  let setup_s = setup_s *. Calib.factor (Array.append before (Calib.measure 8)) in
  let refs = Array.of_list (paper_reference (Array.to_list rows)) in
  let order = Array.init (Array.length rows) Fun.id in
  let rng = Random.State.make [| seed |] in
  let samples = Array.make (Array.length rows) [] in
  let t0 = now_s () in
  let passes = ref 0 in
  while !passes = 0 || now_s () -. t0 < seconds do
    shuffle rng order;
    Array.iter
      (fun i -> samples.(i) <- row_sample rows.(i) ~expected:refs.(i) :: samples.(i))
      order;
    incr passes
  done;
  let row_ms = Array.map median_of samples in
  Printf.printf "paper-cold seed %d: %d rows, %d cold passes\n" seed (Array.length rows) !passes;
  Array.iteri
    (fun i (r : Paper.row) ->
      Printf.printf "  %-30s %-22s %-6s %12.4f ms  %s\n" r.series r.label
        (Paper.group_name r.group) row_ms.(i) refs.(i))
    rows;
  let total_s = Array.fold_left ( +. ) 0. row_ms /. 1e3 in
  (* a group's typical row: the geometric mean of its rows' medians (the
     median row of a group flips between neighbouring rows run to run) *)
  let group g =
    Stats.geomean
      (Array.of_list
         (List.filteri (fun i _ -> rows.(i).Paper.group = g) (Array.to_list row_ms)))
  in
  metric "setup_s" "s" setup_s;
  metric "throughput_rps" "1/s" (float_of_int (Array.length rows) /. total_s);
  metric "latency_p99_ms" "ms" (Array.fold_left max 0. row_ms);
  metric "check_p50_ms" "ms" (group Paper.Check);
  metric "equivalence_p50_ms" "ms" (group Paper.Equivalence);
  metric "compose_p50_ms" "ms" (group Paper.Compose);
  metric "kprefix_p50_ms" "ms" (group Paper.Kprefix);
  metric "peak_rss_mb" "MiB" (float_of_int (Serve.status_kb (Unix.getpid ()) "VmHWM") /. 1024.);
  metric "total_s" "s" total_s;
  metric "geomean_ms" "ms" (Stats.geomean row_ms)

(* The largest instance of every series, traced: per-layer times and the
   counters the paper's complexity claims are about. *)
let paper_layers ~repeats =
  let rows, _ = paper_rows () in
  let largest = List.filter (fun (r : Paper.row) -> r.layer <> None) (Array.to_list rows) in
  let refs = paper_reference largest in
  let spans = Spans.create () in
  let counters = Hashtbl.create 8 in
  let bump k v = Hashtbl.replace counters k (v + Option.value ~default:0 (Hashtbl.find_opt counters k)) in
  let plain = ref 0. and with_spans = ref 0. in
  List.iteri
    (fun i ((row : Paper.row), expected) ->
      let name = Option.get row.layer in
      let untraced = List.init repeats (fun _ ->
          let v, ms = cold row in
          check_verdict row ~expected v;
          ms)
      in
      let traced =
        List.init repeats (fun _ ->
            let thunk = row.make () in
            Engine.cache_clear_all ();
            let before = Engine.Stats.snapshot Engine.Stats.global in
            let v, ms =
              time_ms (fun () -> Spans.with_span spans ~name ~req:i thunk)
            in
            check_verdict row ~expected v;
            let d = Engine.Stats.delta ~before Engine.Stats.global in
            let get k = Option.value ~default:0 (List.assoc_opt k d) in
            if String.starts_with ~prefix:"proplogic." name then bump "proplogic.sat_calls" (get "sat_calls");
            if String.starts_with ~prefix:"relational.cq_" name then
              bump "relational.hom_checks" (get "hom_checks");
            ms)
      in
      plain := !plain +. median_of untraced;
      with_spans := !with_spans +. median_of traced)
    (List.combine largest refs);
  let self = Spans.self_by_name (Spans.spans spans) in
  List.iter
    (fun (r : Paper.row) ->
      let name = Option.get r.layer in
      let v = match List.assoc_opt name self with Some a -> Stats.median a /. 1e3 | None -> 0. in
      metric name "ms" v)
    largest;
  let per_eval k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counters k)) /. float_of_int repeats in
  metric "proplogic.sat_calls" "count" (per_eval "proplogic.sat_calls");
  metric "relational.hom_checks" "count" (per_eval "relational.hom_checks");
  Spans.write_file (Spans.spans spans)
    (Filename.concat out_dir (Printf.sprintf "spans-%s-%d-paper.jsonl" workload seed));
  (!plain, !with_spans)

(* ------------------------------------------------------------------ *)

let () =
  Par.Pool.set_jobs (Some 1);
  (* a fresh process's first calibration units run slow, while its heap
     grows *)
  ignore (Calib.measure 5);
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.printf "placement: cpus %s (client and swsd share them), nproc %s, jobs 1\n"
    (Option.value ~default:"?" (Serve.proc_status (Unix.getpid ()) "Cpus_allowed_list"))
    (Option.value ~default:"?" (Hashtbl.find_opt args "--nproc"));
  (match workload with
  | "serve-narrow" | "serve-wide" | "serve-hot" ->
    let w =
      match workload with
      | "serve-narrow" -> Gen.Narrow
      | "serve-wide" -> Gen.Wide
      | _ -> Gen.Hot
    in
    serve_run w ~seconds ~traced;
    if traced then begin
      (* the paper rows' layers, measured once so every traced run
         reports every layer *)
      Engine.set_caching false;
      ignore (paper_layers ~repeats:1)
    end
  | "paper-cold" ->
    if not traced then begin
      Engine.set_caching false;
      paper_e2e ()
    end
    else begin
      (* the serving layers, from a short serve-narrow companion *)
      serve_run Gen.Narrow ~seconds:0. ~traced:true;
      metrics := List.filter (fun (n, _, _) -> n <> "trace.overhead_pct") !metrics;
      Engine.set_caching false;
      let plain, with_spans = paper_layers ~repeats:3 in
      metric "trace.overhead_pct" "%" (100. *. ((with_spans /. plain) -. 1.))
    end
  | w -> die "unknown workload %S\nusage: %s" w usage);
  emit ()
