(* Benchmark-side spans: name, start, end, parent and request id, kept in
   memory and written out once the run ends.  Spans are opened around
   calls into the program's public functions; nothing inside the program
   is instrumented. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int option;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable stack : int list;  (* open spans, innermost first *)
}

let create () = { spans = []; next = 0; stack = [] }

(* A finished span with explicit times (the tests build span trees
   this way). *)
let add t ~name ~req ~parent ~start_ns ~stop_ns =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; req; parent; start_ns; stop_ns } :: t.spans;
  id

(* [with_span t ~name ~req f] times [f ()] as a child of the innermost
   open span. *)
let with_span t ~name ~req f =
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  (* reserve the id now so children can name it as their parent *)
  let id = t.next in
  t.next <- id + 1;
  t.stack <- id :: t.stack;
  let start_ns = Obs.Clock.now_ns () in
  let finish () =
    let stop_ns = Obs.Clock.now_ns () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; req; parent; start_ns; stop_ns } :: t.spans
  in
  match f () with
  | r -> finish (); r
  | exception e -> finish (); raise e

let spans t = List.rev t.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if Int64.compare a cb <= 0 then (total, Some (ca, max cb b))
          else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) sorted
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

(* Self time of every span: its duration minus the part of it that its
   direct children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add children p (s.start_ns, s.stop_ns)
      | None -> ())
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let dur = Int64.sub s.stop_ns s.start_ns in
      (s, Int64.sub dur (covered ~lo:s.start_ns ~hi:s.stop_ns kids)))
    spans

(* name -> self times in microseconds, in span order *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (Int64.to_float self /. 1e3 :: prev))
    (self_times spans);
  Hashtbl.fold (fun k v acc -> (k, Array.of_list (List.rev v)) :: acc) tbl []
  |> List.sort compare

let write_file spans path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%s,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.name s.req
        (match s.parent with Some p -> string_of_int p | None -> "null")
        s.start_ns s.stop_ns)
    spans
