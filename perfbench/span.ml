(* In-memory span tracer for the traced benchmark run.

   A span is one timed call into a layer: name, start, end and the span
   that was open when it began (its parent).  Spans are kept in memory
   and written out once, when the run ends, so the tracer itself costs
   two clock reads and one cons per span — never per event. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  start_ns : int;
  stop_ns : int;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : int list;  (* open spans, innermost first *)
}

let create () = { spans = []; next_id = 0; stack = [] }

(* Run [f] inside a span; returns its result and the span's duration in
   seconds. *)
let with_ t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start_ns = Ddp_util.Clock.monotonic_ns () in
  let finally () =
    let stop_ns = Ddp_util.Clock.monotonic_ns () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; parent; start_ns; stop_ns } :: t.spans;
    float_of_int (stop_ns - start_ns) /. 1e9
  in
  match f () with
  | v -> (v, finally ())
  | exception e ->
    ignore (finally () : float);
    raise e

let time t name f = snd (with_ t name f)
let spans t = List.rev t.spans
let duration s = float_of_int (s.stop_ns - s.start_ns) /. 1e9

(* Self time per span: its duration minus the time its direct children
   cover (children of one parent never overlap: the tracer is
   single-threaded and strictly nested). *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    t.spans;
  List.map
    (fun s -> (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0))
    (spans t)

(* Self time summed by span name, largest first. *)
let self_by_name t =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace acc s.name (self +. Option.value (Hashtbl.find_opt acc s.name) ~default:0.0))
    (self_times t);
  List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq acc))

let to_json t =
  let open Ddp_obs.Json in
  List
    (List.map
       (fun (s, self) ->
         Obj
           [
             ("id", Int s.id);
             ("name", Str s.name);
             ("parent", Int s.parent);
             ("start_ns", Int s.start_ns);
             ("end_ns", Int s.stop_ns);
             ("self_s", Float self);
           ])
       (self_times t))
