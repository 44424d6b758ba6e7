(* Summary statistics over raw samples.  Percentiles are read from the
   sorted samples themselves, never from bucketed histograms: a log-2
   bucket bound turns a 5% shift across a bucket edge into a 2x jump. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (the "R-7" rule). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty sample";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5

(* A percentile is reported only when at least [min_beyond] samples lie
   strictly above it; below that it is the maximum of a handful of
   samples, not a tail estimate. *)
let min_beyond = 10

let percentile xs q =
  let a = sorted xs in
  if Array.length a = 0 then None
  else
    let v = quantile_sorted a q in
    let beyond = Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 a in
    if beyond >= min_beyond then Some v else None

let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "geomean: empty sample";
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int n)

(* Reply accounting.  A reply is failed when the server answered
   error or exhausted, when the transport broke, or when the answer
   differs from the reference. *)
type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable error : int;
  mutable exhausted : int;
  mutable transport : int;
  mutable wrong : int;
}

let tally () =
  { attempted = 0; ok = 0; error = 0; exhausted = 0; transport = 0; wrong = 0 }

let record t = function
  | `Ok -> t.attempted <- t.attempted + 1; t.ok <- t.ok + 1
  | `Error -> t.attempted <- t.attempted + 1; t.error <- t.error + 1
  | `Exhausted -> t.attempted <- t.attempted + 1; t.exhausted <- t.exhausted + 1
  | `Transport -> t.attempted <- t.attempted + 1; t.transport <- t.transport + 1

(* An ok reply whose answer turned out wrong moves from ok to wrong. *)
let mark_wrong t =
  t.ok <- t.ok - 1;
  t.wrong <- t.wrong + 1

let failed t = t.error + t.exhausted + t.transport + t.wrong

let failed_share t =
  if t.attempted = 0 then 0. else float_of_int (failed t) /. float_of_int t.attempted
