(* Driving a spawned swsd: process control, the closed-loop client, and
   the in-process reference answers the replies are checked against. *)

open Perfbench
module J = Obs.Json
module P = Server.Protocol
module Regex = Automata.Regex
module Nfa = Automata.Nfa
module Dfa = Automata.Dfa
open Sws

let now = Obs.Clock.now_ns
let ms_since t0 = Obs.Clock.ns_to_ms (Obs.Clock.elapsed_ns t0)

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; fd : Unix.file_descr; setup_s : float }

let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

(* a field of /proc/<pid>/status *)
let proc_status pid field =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    let prefix = field ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.starts_with ~prefix line ->
        Some (String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)))
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* a memory field of /proc/<pid>/status, in kB; 0 when unreadable *)
let status_kb pid field =
  match Option.map (String.split_on_char ' ') (proc_status pid field) with
  | Some (n :: _) -> Option.value ~default:0 (int_of_string_opt n)
  | _ -> 0

let call fd payload =
  P.write_frame fd payload;
  match P.read_frame fd with
  | Ok s -> s
  | Error (`Too_large n) -> failwith (Printf.sprintf "reply frame of %d bytes" n)

let request_payload ~id ~meta meth params =
  J.to_string
    (J.Obj
       ([ ("id", J.Int id); ("method", J.String meth); ("params", J.Obj params) ]
       @ if meta then [ ("meta", J.Bool true) ] else []))

let status_of reply =
  match J.of_string reply with
  | Ok j -> (J.member "status" j, j)
  | Error _ -> (None, J.Null)

(* Spawn [swsd serve] on a Unix socket and wait for the first ok ping:
   the set-up time.  The child inherits the benchmark's CPU placement;
   its output goes to [swsd.log] next to the socket. *)
let spawn ~swsd ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile
      (Filename.concat (Filename.dirname sock) "swsd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let t0 = now () in
  let pid =
    Unix.create_process swsd
      [| swsd; "serve"; "--socket"; sock; "--jobs"; "1"; "--log-level"; "error" |]
      Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  let deadline = Obs.Clock.now_s () +. 30. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith "swsd exited before it listened");
      if Obs.Clock.now_s () > deadline then failwith "swsd did not start";
      Unix.sleepf 0.0002;
      connect ()
  in
  let fd = connect () in
  (match status_of (call fd (request_payload ~id:0 ~meta:false "ping" [])) with
  | Some (J.String "ok"), _ -> ()
  | _ -> failwith "swsd answered ping with an error");
  { pid; fd; setup_s = ms_since t0 /. 1e3 }

let stop d =
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  reap d.pid

(* ------------------------------------------------------------------ *)
(* Requests and answers                                                *)
(* ------------------------------------------------------------------ *)

let params (r : Gen.request) =
  let s x = J.String x in
  match r with
  | Check x | Kprefix x -> [ ("service", s x) ]
  | Equivalence (l, r) -> [ ("left", s l); ("right", s r) ]
  | Compose (g, cs) ->
    [ ("goal", s g); ("components", J.List (List.map s cs)); ("mode", s "or") ]

(* The compared fields, as one string: verdicts, witness and
   distinguishing lengths, k, found/exact. *)
let answer_of_result meth result =
  let mem k j = Option.value ~default:J.Null (J.member k j) in
  let int k j = match J.member k j with Some (J.Int n) -> string_of_int n | _ -> "-" in
  let verdict j =
    match J.member "answer" j with
    | Some (J.String "yes") -> "yes/" ^ int "witness_len" j
    | Some (J.String a) -> a
    | _ -> "?"
  in
  let bool k j = match J.member k j with Some (J.Bool b) -> string_of_bool b | _ -> "-" in
  match meth with
  | "check" ->
    Printf.sprintf "ne=%s va=%s"
      (verdict (mem "non_emptiness" result))
      (verdict (mem "validation" result))
  | "equivalence" -> (
    match J.member "equivalent" result with
    | Some (J.Bool true) -> "equivalent"
    | Some (J.Bool false) -> "inequivalent/" ^ int "distinguishing_len" result
    | _ -> "?")
  | "kprefix" -> (
    match J.member "k" result with
    | Some (J.Int k) -> Printf.sprintf "k=%d" k
    | Some J.Null -> "k=none"
    | _ -> "?")
  | "compose" ->
    Printf.sprintf "found=%s exact=%s" (bool "found" result) (bool "exact" result)
  | _ -> "?"

let outcome_answer = function
  | Decision.Yes w -> Some (Printf.sprintf "yes/%d" (List.length w))
  | Decision.No -> Some "no"
  | Decision.Exhausted _ -> None

(* A span wrapper: [span name f] runs [f], timed or not. *)
type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun _ f -> f ()) }

(* The daemon's computation for one request, call by call in its order
   (decode and encode aside), each call inside [s.span]: untimed it is
   the reference path the replies are checked against, with spans it is
   the traced replay.  [on_nfa] and [on_sws] see every automaton and
   service built.  [None] when it trips a budget. *)
let answer ?(s = untimed) ?(on_nfa = ignore) ?(on_sws = ignore) ?stats (r : Gen.request) =
  let span name f = s.span name f in
  let res = List.map (fun x -> span "automata.regex_parse" (fun () -> Regex.parse x)) (Gen.specs r) in
  let alphabet_size = Server.Session.alphabet_size_of res in
  let nfa re =
    let n = span "automata.nfa_of_regex" (fun () -> Nfa.of_regex ~alphabet_size re) in
    on_nfa n;
    n
  in
  let sws re =
    let n = nfa re in
    let sws = span "core.roman_to_sws_pl" (fun () -> Roman.to_sws_pl n) in
    on_sws sws;
    sws
  in
  match (r, res) with
  | Check _, [ re ] -> (
    let sws = sws re in
    let ne = span "core.pl_non_emptiness" (fun () -> Decision.pl_non_emptiness ?stats sws) in
    let va =
      span "core.pl_validation" (fun () -> Decision.pl_validation ?stats sws ~output:false)
    in
    match (outcome_answer ne, outcome_answer va) with
    | Some ne, Some va -> Some (Printf.sprintf "ne=%s va=%s" ne va)
    | _ -> None)
  | Equivalence _, [ rl; rr ] -> (
    let sl = sws rl in
    let sr = sws rr in
    match span "core.pl_equivalence" (fun () -> Decision.pl_equivalence ?stats sl sr) with
    | Decision.Equivalent -> Some "equivalent"
    | Inequivalent w -> Some (Printf.sprintf "inequivalent/%d" (List.length w))
    | Equiv_exhausted _ -> None)
  | Kprefix _, [ re ] ->
    let n = nfa re in
    let dfa = span "automata.dfa_of_nfa" (fun () -> Dfa.of_nfa n) in
    Some
      (match span "core.k_prefix_bound" (fun () -> Compose.k_prefix_bound dfa) with
      | Some k -> Printf.sprintf "k=%d" k
      | None -> "k=none")
  | Compose (_, cs), rg :: rcs -> (
    let goal = nfa rg in
    let components =
      List.mapi (fun i (spec, re) -> (Printf.sprintf "V%d:%s" i spec, nfa re)) (List.combine cs rcs)
    in
    match span "core.compose_nfa_or" (fun () -> Compose.compose_nfa_or ~goal ~components ()) with
    | Some { Compose.exact; _ } -> Some (Printf.sprintf "found=true exact=%b" exact)
    | None -> Some "found=false exact=-")
  | _ -> invalid_arg "Serve.answer: request and regexes disagree"

let with_reference_config f =
  let caching = Engine.caching_enabled () in
  Engine.set_caching false;
  Fun.protect ~finally:(fun () -> Engine.set_caching caching) f

(* ------------------------------------------------------------------ *)
(* Closed-loop batches                                                 *)
(* ------------------------------------------------------------------ *)

type reply = {
  req : int;  (** index into the run's distinct-request table *)
  ms : float;  (** client-side round trip *)
  raw : string option;  (** [None]: the transport failed *)
}

type batch = {
  warm : reply array;  (** untimed: the first pass that fills the caches *)
  setup_s : float;
  wall_s : float;
  replies : reply array;
  peak_rss_kb : int;
  rss_growth_kb : int;  (** VmRSS after the requests minus after the ping *)
  cache : J.t;  (** the [cache] method's class gauges at the end *)
}

(* One daemon, [order] sent in a closed loop on one connection after the
   untimed [warmup] requests; the set-up, the memory readings and the
   final cache query are outside the timed region too. *)
let run_batch ~swsd ~sock ?(warmup = [||]) (payloads : string array) (order : int array) =
  let d = spawn ~swsd ~sock in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let broken = ref false in
  let send req =
    if !broken then { req; ms = 0.; raw = None }
    else
      let t0 = now () in
      match call d.fd payloads.(req) with
      | raw -> { req; ms = ms_since t0; raw = Some raw }
      | exception (Unix.Unix_error _ | P.Closed | Failure _) ->
        broken := true;
        { req; ms = ms_since t0; raw = None }
  in
  let warm = Array.map send warmup in
  let rss0 = status_kb d.pid "VmRSS" in
  let t_start = now () in
  let replies = Array.map send order in
  let wall_s = ms_since t_start /. 1e3 in
  let cache =
    if !broken then J.Null
    else
      match status_of (call d.fd (request_payload ~id:0 ~meta:false "cache" [])) with
      | Some (J.String "ok"), j -> (
        match J.member "result" j with
        | Some r -> Option.value ~default:J.Null (J.member "classes" r)
        | None -> J.Null)
      | _ -> J.Null
  in
  {
    warm;
    setup_s = d.setup_s;
    wall_s;
    replies;
    peak_rss_kb = status_kb d.pid "VmHWM";
    rss_growth_kb = status_kb d.pid "VmRSS" - rss0;
    cache;
  }

(* sum of one gauge over the given cache classes *)
let gauge ?(only = fun _ -> true) name classes =
  match classes with
  | J.Obj kvs ->
    List.fold_left
      (fun acc (cls, g) ->
        if only cls then
          match J.member name g with Some (J.Int n) -> acc + n | _ -> acc
        else acc)
      0 kvs
  | _ -> 0

let is_reply_class cls = cls = "server_l1" || cls = "server_l2"

(* What one reply says, once the batch is over. *)
type parsed = {
  status : [ `Ok | `Error | `Exhausted | `Transport ];
  answer : string;
  handle_ms : float option;  (** meta.duration_ms *)
  source : string option;  (** meta.cache.source *)
  memo_hits : int;  (** procedure-cache traffic in meta.cache.delta *)
  memo_misses : int;
}

let parse_reply meth raw =
  let none =
    { status = `Transport; answer = ""; handle_ms = None; source = None;
      memo_hits = 0; memo_misses = 0 }
  in
  match raw with
  | None -> none
  | Some raw -> (
    match J.of_string raw with
    | Error _ -> none
    | Ok j ->
      let status =
        match J.member "status" j with
        | Some (J.String "ok") -> `Ok
        | Some (J.String "exhausted") -> `Exhausted
        | _ -> `Error
      in
      let answer =
        match J.member "result" j with
        | Some r when status = `Ok -> answer_of_result meth r
        | _ -> ""
      in
      let meta = J.member "meta" j in
      let handle_ms =
        Option.bind meta (fun m ->
            match J.member "duration_ms" m with
            | Some (J.Float f) -> Some f
            | Some (J.Int n) -> Some (float_of_int n)
            | _ -> None)
      in
      let cache = Option.bind meta (J.member "cache") in
      let source =
        Option.bind cache (fun c ->
            match J.member "source" c with Some (J.String s) -> Some s | _ -> None)
      in
      let delta = Option.bind cache (J.member "delta") |> Option.value ~default:J.Null in
      let memo = fun cls -> not (is_reply_class cls) in
      {
        status;
        answer;
        handle_ms;
        source;
        memo_hits = gauge ~only:memo "hits" delta;
        memo_misses = gauge ~only:memo "misses" delta;
      })
