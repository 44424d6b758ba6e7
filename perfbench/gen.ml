(* Seeded request generators for the serving workloads.

   Requests are drawn from a [Random.State] made from the seed alone, so
   a seed always yields the same request stream.  The cold workloads
   never repeat a request: two requests count as the same when they parse
   to the same regex ASTs (the content the server's reply caches key on),
   not merely when their texts match. *)

type request =
  | Check of string
  | Equivalence of string * string
  | Kprefix of string
  | Compose of string * string list  (** goal, inline components *)

let meth = function
  | Check _ -> "check"
  | Equivalence _ -> "equivalence"
  | Kprefix _ -> "kprefix"
  | Compose _ -> "compose"

let specs = function
  | Check s | Kprefix s -> [ s ]
  | Equivalence (l, r) -> [ l; r ]
  | Compose (g, cs) -> g :: cs

(* Content identity: the method plus the parsed ASTs. *)
let key r =
  meth r
  ^ Marshal.to_string
      (List.map Automata.Regex.parse (specs r))
      [ Marshal.No_sharing ]

(* ------------------------------------------------------------------ *)
(* Random regexes                                                      *)
(* ------------------------------------------------------------------ *)

type re =
  | Sym of int
  | Seq of re * re
  | Alt of re * re
  | Star of re
  | Plus of re

(* Concrete syntax with the fewest parentheses: alternation binds
   loosest, then sequence; a postfix operator takes a letter or a
   parenthesised group. *)
let render r =
  let rec out prec = function
    | Sym i -> String.make 1 (Char.chr (Char.code 'a' + i))
    | Alt (a, b) ->
      let s = out 0 a ^ "|" ^ out 0 b in
      if prec > 0 then "(" ^ s ^ ")" else s
    | Seq (a, b) ->
      let s = out 1 a ^ out 1 b in
      if prec > 1 then "(" ^ s ^ ")" else s
    | (Star a | Plus a) as r ->
      let inner = match a with Sym _ -> out 2 a | _ -> "(" ^ out 0 a ^ ")" in
      inner ^ (match r with Star _ -> "*" | _ -> "+")
  in
  out 0 r

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* A regex with [size] letters drawn from [letters].  A postfix
   operator never directly wraps another one. *)
let rec regex ?(unary = true) rng ~letters size =
  if size <= 1 then
    let leaf = Sym (pick rng letters) in
    match Random.State.int rng 6 with
    | 0 when unary -> Star leaf
    | 1 when unary -> Plus leaf
    | _ -> leaf
  else
    let k = 1 + Random.State.int rng (size - 1) in
    match Random.State.int rng 10 with
    | 7 when unary -> Star (regex ~unary:false rng ~letters size)
    | 8 when unary -> Plus (regex ~unary:false rng ~letters size)
    | 0 | 1 | 2 | 3 | 7 | 8 ->
      Seq (regex rng ~letters k, regex rng ~letters (size - k))
    | _ -> Alt (regex rng ~letters k, regex rng ~letters (size - k))

(* A language-preserving rewrite of [r], so that equivalence requests
   also exercise the full exploration behind an "equivalent" verdict. *)
let rec equivalent_variant rng = function
  | Alt (a, b) ->
    if Random.State.bool rng then Alt (b, a) else Alt (equivalent_variant rng a, b)
  | Seq (a, b) ->
    if Random.State.bool rng then Seq (equivalent_variant rng a, b)
    else Seq (a, equivalent_variant rng b)
  | Plus a -> Seq (a, Star a)
  | Star a -> if Random.State.bool rng then Star (Star a) else Star (equivalent_variant rng a)
  | Sym _ as s -> Alt (s, s)

(* ------------------------------------------------------------------ *)
(* Workload streams                                                    *)
(* ------------------------------------------------------------------ *)

(* serve-narrow: letters a-c, the four methods in a fixed rotation so
   every run carries the same method shares. *)
let narrow_request rng i =
  let letters = [ 0; 1; 2 ] in
  let re () = regex rng ~letters (2 + Random.State.int rng 5) in
  match i mod 4 with
  | 0 -> Check (render (re ()))
  | 1 ->
    let l = re () in
    let r =
      if Random.State.bool rng then equivalent_variant rng l else re ()
    in
    Equivalence (render l, render r)
  | 2 -> Kprefix (render (re ()))
  | _ ->
    let comps =
      List.init (2 + Random.State.int rng 2) (fun _ ->
          regex rng ~letters (1 + Random.State.int rng 2))
    in
    let goal =
      if Random.State.bool rng then
        (* a goal built from the components: usually composable *)
        let a = pick rng comps and b = pick rng comps in
        match Random.State.int rng 3 with
        | 0 -> Star (Seq (a, b))
        | 1 -> Seq (a, Star b)
        | _ -> Alt (Seq (a, b), b)
      else re ()
    in
    Compose (render goal, List.map render comps)

(* serve-wide: check and equivalence requests on three-letter words
   whose highest letter is index 8, 9, 9, 10 in strict rotation, the
   other two letters below it.  Every such word has the same automaton
   shape, so a request's cost is set by the valuation space alone (2^10,
   2^11 or 2^12 input symbols), every run has the same mix of the three
   sizes, and the median request is one of the middle size, away from the
   other two.  They cost tens of milliseconds each; kprefix and compose
   requests over the same letters do not pay for the valuation space, and
   make up 18 of every 20 requests so that a run gathers the samples a p99
   needs. *)
let wide_request rng i =
  let wide () =
    let top = [| 8; 9; 9; 10 |].(i / 20 mod 4) in
    let at = Random.State.int rng 3 in
    let letter k = Sym (if k = at then top else Random.State.int rng top) in
    let a = letter 0 in
    let b = letter 1 in
    Seq (Seq (a, b), letter 2)
  in
  let cheap () =
    let top = 8 + Random.State.int rng 3 in
    regex rng ~letters:[ top; Random.State.int rng top; Random.State.int rng top ]
      (2 + Random.State.int rng 4)
  in
  match i mod 20 with
  | 0 -> Check (render (wide ()))
  | 10 ->
    (* two different words: a pair of one word twice would share one
       automaton through the cache and cost half as much *)
    let l = wide () in
    let rec other () = let r = wide () in if r = l then other () else r in
    Equivalence (render l, render (other ()))
  | k when k mod 2 = 1 -> Kprefix (render (cheap ()))
  | _ ->
    let comps = List.init 2 (fun _ -> cheap ()) in
    Compose (render (Seq (pick rng comps, Star (pick rng comps))), List.map render comps)

type workload = Narrow | Wide | Hot

(* [stream w ~seed] returns a generator of the workload's requests.  The
   cold workloads skip any request whose content was already drawn; hot
   cycles through the first 16 narrow requests of the seed. *)
let stream w ~seed =
  let rng = Random.State.make [| seed |] in
  let seen = Hashtbl.create 1024 in
  let i = ref 0 in
  let rec fresh ?(tries = 0) draw =
    let r = draw rng !i in
    let k = key r in
    if Hashtbl.mem seen k then
      if tries > 10_000 then failwith "request generator exhausted its space"
      else fresh ~tries:(tries + 1) draw
    else begin
      Hashtbl.add seen k ();
      incr i;
      r
    end
  in
  match w with
  | Narrow -> fun () -> fresh narrow_request
  | Wide -> fun () -> fresh wide_request
  | Hot ->
    let fixed = Array.init 16 (fun _ -> fresh narrow_request) in
    let j = ref (-1) in
    fun () ->
      incr j;
      fixed.(!j mod 16)

let take n next = List.init n (fun _ -> next ())
