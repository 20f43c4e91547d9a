(* ddpd client: blocking calls, typed errors, seeded backoff. *)

module Config = Ddp_core.Config
module Dep = Ddp_core.Dep
module Dep_store = Ddp_core.Dep_store
module Health = Ddp_core.Health
module Trace_file = Ddp_minir.Trace_file
module Json = Ddp_obs.Json

type error = Unavailable of string | Refused of string | Protocol of string

let error_to_string = function
  | Unavailable s -> "daemon unavailable: " ^ s
  | Refused s -> "daemon refused: " ^ s
  | Protocol s -> "protocol error: " ^ s

type report = {
  session : int;
  complete : bool;
  reasons : string list;
  worker_faults : int;
  loss : Health.loss;
  deps : (Dep.t * int) list;
  distinct : int;
  occurrences : int;
  events_received : int;
  events_processed : int;
  escalations : int;
  counters : (string * int) list;
  elapsed : float;
  raw : Json.t;
}

let dep_key_set r =
  List.fold_left (fun acc (d, _) -> Dep_store.Key_set.add d acc) Dep_store.Key_set.empty r.deps

(* Full jitter: uniform over (0, min cap (base * 2^attempt)), floored by
   the server's retry-after hint.  Full jitter desynchronizes a thundering
   herd of rejected clients better than equal-jitter does. *)
let backoff_ms ~base_ms ~cap_ms ~rng ~floor_ms attempt =
  let ceiling = min cap_ms (base_ms * (1 lsl min attempt 20)) in
  max floor_ms (1 + Random.State.int rng (max 1 ceiling))

let policy_string = function
  | Config.Block -> "block"
  | Config.Drop_new -> "drop-new"
  | Config.Drop_oldest -> "drop-oldest"
  | Config.Sample p -> Printf.sprintf "sample:%g" p

(* -- connection with retry -------------------------------------------------- *)

let connect socket =
  (* daemon gone mid-write = typed error, not a SIGPIPE death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Ok fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Unix.error_message e)

(* Dial until admitted: retry connect failures and BUSY replies with
   jittered backoff; [hello] is re-sent on every attempt.  Returns the
   connected fd and the ADMIT key-values. *)
let dial ~retries ~base_ms ~cap_ms ~rng ~reply_timeout ~socket hello =
  let rec attempt i =
    let retry reason floor_ms =
      if i >= retries then Error (Unavailable (Printf.sprintf "%s after %d attempts" reason (i + 1)))
      else begin
        Thread.delay (float_of_int (backoff_ms ~base_ms ~cap_ms ~rng ~floor_ms i) /. 1000.0);
        attempt (i + 1)
      end
    in
    match connect socket with
    | Error msg -> retry (Printf.sprintf "connect failed (%s)" msg) 0
    | Ok fd -> (
      let give_up reason =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        reason
      in
      match
        Wire.write_frame fd Wire.Hello hello;
        Wire.read_frame ~deadline:(Unix.gettimeofday () +. reply_timeout) fd
      with
      | Some (Wire.Admit, payload) -> Ok (fd, Wire.kv_decode payload)
      | Some (Wire.Busy, payload) ->
        let kvs = try Wire.kv_decode payload with Wire.Protocol_error _ -> [] in
        let floor_ms =
          match Option.bind (Wire.kv_get kvs "retry-after-ms") int_of_string_opt with
          | Some ms when ms >= 0 -> ms
          | _ -> 0
        in
        ignore (give_up () : unit);
        retry "busy" floor_ms
      | Some (Wire.Err, msg) -> Error (give_up (Refused msg))
      | Some (ty, _) ->
        Error (give_up (Protocol (Printf.sprintf "unexpected %s reply to HELLO" (Wire.frame_name ty))))
      | None -> ignore (give_up () : unit); retry "connection closed" 0
      | exception Wire.Timeout -> ignore (give_up () : unit); retry "reply timeout" 0
      | exception Wire.Protocol_error msg -> Error (give_up (Protocol msg))
      | exception Unix.Unix_error (e, _, _) ->
        ignore (give_up () : unit);
        retry (Printf.sprintf "i/o error (%s)" (Unix.error_message e)) 0)
  in
  attempt 0

(* -- report parsing --------------------------------------------------------- *)

let parse_failure fmt = Printf.ksprintf (fun s -> Error (Protocol s)) fmt

let kind_of_string = function
  | "RAW" -> Some Dep.RAW
  | "WAR" -> Some Dep.WAR
  | "WAW" -> Some Dep.WAW
  | "INIT" -> Some Dep.INIT
  | _ -> None

let dep_of_json = function
  | Json.List [ Json.Str k; Json.Int sink; Json.Int src; Json.Bool race; Json.Int count ] -> (
    match kind_of_string k with
    | Some kind -> Some ({ Dep.kind; sink; src; race }, count)
    | None -> None)
  | _ -> None

let parse_report raw =
  let int k = Option.bind (Json.member k raw) Json.to_int in
  let req_int k = match int k with Some v -> Ok v | None -> parse_failure "report missing %S" k in
  let ( let* ) = Result.bind in
  let* session = req_int "session" in
  let* complete =
    match Json.member "complete" raw with
    | Some (Json.Bool b) -> Ok b
    | _ -> parse_failure "report missing \"complete\""
  in
  let reasons =
    match Option.bind (Json.member "reasons" raw) Json.to_list with
    | Some l -> List.filter_map Json.to_str l
    | None -> []
  in
  let loss_field k =
    match Option.bind (Json.member "loss" raw) (Json.member k) with
    | Some j -> Option.value (Json.to_int j) ~default:0
    | None -> 0
  in
  let loss =
    {
      Health.dropped_chunks = loss_field "dropped_chunks";
      dropped_events = loss_field "dropped_events";
      dead_partitions = loss_field "dead_partitions";
      unprocessed_chunks = loss_field "unprocessed_chunks";
    }
  in
  let* deps =
    match Option.bind (Json.member "deps" raw) Json.to_list with
    | None -> parse_failure "report missing \"deps\""
    | Some l -> (
      let parsed = List.map dep_of_json l in
      if List.mem None parsed then parse_failure "malformed dep entry in report"
      else Ok (List.filter_map Fun.id parsed))
  in
  let counters =
    match Json.member "counters" raw with
    | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v)) kvs
    | _ -> []
  in
  Ok
    {
      session;
      complete;
      reasons;
      worker_faults = Option.value (int "worker_faults") ~default:0;
      loss;
      deps;
      distinct = Option.value (int "distinct") ~default:(List.length deps);
      occurrences = Option.value (int "occurrences") ~default:0;
      events_received = Option.value (int "events_received") ~default:0;
      events_processed = Option.value (int "events_processed") ~default:0;
      escalations = Option.value (int "escalations") ~default:0;
      counters;
      elapsed =
        (match Option.bind (Json.member "elapsed" raw) Json.to_float with
        | Some f -> f
        | None -> 0.0);
      raw;
    }

(* -- public calls ----------------------------------------------------------- *)

(* Room for the encoded trace up front, so the buffer does not grow by
   doubling (and leave each smaller copy as garbage): event lines of
   recorded traces average 23-24 bytes, and the slack absorbs traces
   with larger addresses and times. *)
let encoded_size_hint events = 4096 + (32 * List.length events)

let default_seed () = Hashtbl.hash (Unix.gettimeofday (), Unix.getpid ())

let submit ?(retries = 6) ?(base_ms = 25) ?(cap_ms = 2000) ?seed ?policy ?deadline ?inject_crash
    ?(chunk_bytes = 64 * 1024) ?(reply_timeout = 60.0) ~socket ~name ~mode ~events ~symtab () =
  let rng = Random.State.make [| (match seed with Some s -> s | None -> default_seed ()) |] in
  let hello =
    Wire.kv_encode
      (List.concat
         [
           [ ("name", name); ("mode", mode) ];
           (match policy with Some p -> [ ("policy", policy_string p) ] | None -> []);
           (match deadline with Some d -> [ ("deadline", Printf.sprintf "%g" d) ] | None -> []);
           (match inject_crash with
           | Some n when n > 0 -> [ ("inject-crash", string_of_int n) ]
           | _ -> []);
           (match seed with Some s -> [ ("seed", string_of_int s) ] | None -> []);
         ])
  in
  (* Encode before dialing: holding an admission slot (and the daemon's
     idle timer) while serializing a large trace would be self-inflicted
     starvation. *)
  let buf = Buffer.create (encoded_size_hint events) in
  Trace_file.to_buffer buf events symtab;
  match dial ~retries ~base_ms ~cap_ms ~rng ~reply_timeout ~socket hello with
  | Error e -> Error e
  | Ok (fd, _admit) ->
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let chunk = max 1 chunk_bytes in
    let read_report () =
      match Wire.read_frame ~deadline:(Unix.gettimeofday () +. reply_timeout) fd with
      | Some (Wire.Report, payload) -> (
        match Json.parse payload with
        | raw -> parse_report raw
        | exception Json.Parse_error msg -> Error (Protocol ("bad report JSON: " ^ msg)))
      | Some (Wire.Err, msg) -> Error (Refused msg)
      | Some (ty, _) ->
        Error (Protocol (Printf.sprintf "unexpected %s instead of REPORT" (Wire.frame_name ty)))
      | None -> Error (Protocol "daemon closed the connection before the report")
      | exception Wire.Timeout -> Error (Protocol "timed out waiting for the report")
      | exception Wire.Protocol_error msg -> Error (Protocol msg)
      | exception Unix.Unix_error (e, _, _) -> Error (Protocol ("i/o error: " ^ Unix.error_message e))
    in
    (* Each DATA payload is copied once, from the encoded trace into
       one reused frame buffer behind the header room. *)
    let stream () =
      let total = Buffer.length buf in
      let frame = Bytes.create (Wire.header_len + min chunk total) in
      let off = ref 0 in
      while !off < total do
        let n = min chunk (total - !off) in
        Buffer.blit buf !off frame Wire.header_len n;
        Wire.write_frame_from fd Wire.Data frame ~len:n;
        off := !off + n
      done;
      Wire.write_frame fd Wire.Fin ""
    in
    (match stream () with
    | () -> read_report ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      (* The daemon aborted the session mid-stream (deadline blown,
         corrupt frame, drain) and closed its end — but it sends the
         final Partial REPORT before closing, and those bytes are still
         sitting in our receive buffer.  Salvage the report; only a
         connection with nothing to read is a protocol error. *)
      read_report ()
    | exception Wire.Protocol_error msg -> Error (Protocol msg)
    | exception Unix.Unix_error (e, _, _) -> Error (Protocol ("i/o error: " ^ Unix.error_message e)))

let status ?(retries = 3) ?(base_ms = 25) ?(cap_ms = 1000) ?seed ?(reply_timeout = 10.0) ~socket () =
  let rng = Random.State.make [| (match seed with Some s -> s | None -> default_seed ()) |] in
  let rec attempt i =
    let retry reason =
      if i >= retries then Error (Unavailable (Printf.sprintf "%s after %d attempts" reason (i + 1)))
      else begin
        Thread.delay (float_of_int (backoff_ms ~base_ms ~cap_ms ~rng ~floor_ms:0 i) /. 1000.0);
        attempt (i + 1)
      end
    in
    match connect socket with
    | Error msg -> retry (Printf.sprintf "connect failed (%s)" msg)
    | Ok fd -> (
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      match
        Wire.write_frame fd Wire.Status_req "";
        Wire.read_frame ~deadline:(Unix.gettimeofday () +. reply_timeout) fd
      with
      | Some (Wire.Status_reply, payload) -> (
        match Json.parse payload with
        | j -> Ok j
        | exception Json.Parse_error msg -> Error (Protocol ("bad status JSON: " ^ msg)))
      | Some (Wire.Err, msg) -> Error (Refused msg)
      | Some (ty, _) ->
        Error (Protocol (Printf.sprintf "unexpected %s reply to STATUS" (Wire.frame_name ty)))
      | None -> Error (Protocol "daemon closed the connection before the status reply")
      | exception Wire.Timeout -> Error (Protocol "timed out waiting for status")
      | exception Wire.Protocol_error msg -> Error (Protocol msg)
      | exception Unix.Unix_error (e, _, _) -> Error (Protocol ("i/o error: " ^ Unix.error_message e)))
  in
  attempt 0
