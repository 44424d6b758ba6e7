(* The machine's speed.  On a shared machine the speed of one CPU swings
   by tens of percent over seconds to minutes as its neighbours come and
   go, and every timing of a run moves with it: runs of the same inputs
   differ by up to half.  A fixed unit of work timed next to the measured
   work follows those swings: in 3 s windows its time correlates at 0.96
   with the library's own request mix, and the ratio of the two varies
   by 5% where each varies by 24%.  So the benchmark reports every time
   at a reference speed, the one at which a unit takes [reference_ms]:

     reported = measured * reference_ms / (median unit time nearby)

   The unit is frozen: a change to it rescales every figure. *)

let reference_ms = 10.

let unit_work () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i * 7919 mod 4099) (string_of_int i)
  done;
  let a = Array.init 20_000 (fun i -> (i * 2654435761) land 0xffff) in
  Array.sort compare a;
  Hashtbl.length h + a.(0)

(* [measure n]: the times of [n] units, in ms *)
let measure n =
  Array.init n (fun _ ->
      let t0 = Obs.Clock.now_ns () in
      ignore (Sys.opaque_identity (unit_work ()));
      Obs.Clock.ns_to_ms (Obs.Clock.elapsed_ns t0))

(* The factor that takes a time measured next to [units] to the
   reference speed. *)
let factor units = reference_ms /. Stats.median units
