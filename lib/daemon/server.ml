(* The daemon: admission -> tenant -> pool, glued to sockets.

   Threading model: one accept thread (select with a short tick so a
   stop request is noticed), one receiver thread per connection, W pool
   domains.  The receiver thread is the tenant's supervisor: it owns
   the socket, the decode path and finalization, so a misbehaving
   client damages exactly the thread and tenant dedicated to it. *)

module Config = Ddp_core.Config
module Fault = Ddp_core.Fault
module Json = Ddp_obs.Json

type config = {
  socket_path : string;
  workers : int;
  max_sessions : int;
  queue_budget : int;
  batch_size : int;
  idle_timeout : float;
  session_deadline : float option;
  degrade_watermark : int;
  drain_grace : float;
  metrics_out : string option;
  log : string -> unit;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    max_sessions = 8;
    queue_budget = 64;
    batch_size = 512;
    idle_timeout = 10.0;
    session_deadline = None;
    degrade_watermark = 256;
    drain_grace = 5.0;
    metrics_out = None;
    log = (fun _ -> ());
  }

type conn = {
  fd : Unix.file_descr;
  mutable tenant : Tenant.t option;  (* set once admitted *)
  thread_id : int;
}

type t = {
  cfg : config;
  lfd : Unix.file_descr;
  admission : Admission.t;
  pool : Pool.t;
  mu : Mutex.t;  (* conns / closed / next_id / threads *)
  mutable next_id : int;
  mutable conns : conn list;
  mutable threads : Thread.t list;
  mutable closed_history : Json.t list;  (* newest first, bounded *)
  mutable accept_thread : Thread.t option;
  stop_requested : bool Atomic.t;
  mutable drained : bool;  (* stop () completed *)
  started : float;
}

let closed_history_cap = 32

let status_json t =
  Mutex.lock t.mu;
  let sessions = List.filter_map (fun c -> c.tenant) t.conns in
  let closed = t.closed_history in
  Mutex.unlock t.mu;
  Json.Obj
    [
      ("schema", Json.Str "ddpd-status/1");
      ("uptime", Json.Float (Ddp_util.Clock.now () -. t.started));
      ("workers", Json.Int (Pool.workers t.pool));
      ("admission", Admission.status_json t.admission);
      ("sessions", Json.List (List.map Tenant.status_json sessions));
      ("closed", Json.List closed);
    ]

(* -- per-connection handling ------------------------------------------------ *)

let closed_entry tenant (r : Tenant.result) =
  Json.Obj
    ([
       ("session", Json.Int (Tenant.id tenant));
       ("name", Json.Str (Tenant.name tenant));
       ("mode", Json.Str (Tenant.mode tenant));
     ]
    @
    match Tenant.result_json tenant r with
    | Json.Obj fields ->
      List.filter (fun (k, _) -> List.mem k [ "complete"; "reasons"; "loss"; "distinct" ]) fields
    | _ -> [])

let record_closed t tenant r =
  Mutex.lock t.mu;
  t.closed_history <-
    (let h = closed_entry tenant r :: t.closed_history in
     if List.length h > closed_history_cap then List.filteri (fun i _ -> i < closed_history_cap) h
     else h);
  Mutex.unlock t.mu

(* Finalize and send the REPORT if the peer is still writable; a dead
   peer only loses its own report. *)
let finish_and_report t conn tenant =
  let r = Tenant.finalize tenant in
  (try Wire.write_frame conn.fd Wire.Report (Json.to_string (Tenant.result_json tenant r))
   with Unix.Unix_error _ | Sys_error _ -> ());
  record_closed t tenant r;
  t.cfg.log
    (Printf.sprintf "session %d (%s): %s" (Tenant.id tenant) (Tenant.name tenant)
       (Ddp_core.Health.to_string r.Tenant.health))

let parse_hello t payload =
  let kvs = Wire.kv_decode payload in
  let get k = Wire.kv_get kvs k in
  let name = Option.value (get "name") ~default:"anon" in
  let mode = Option.value (get "mode") ~default:"serial" in
  let seed =
    match get "seed" with Some s -> int_of_string_opt s | None -> None
  in
  let backpressure =
    match get "policy" with
    | None | Some "block" -> Config.Block
    | Some "drop-new" -> Config.Drop_new
    | Some "drop-oldest" -> Config.Drop_oldest
    | Some s when String.length s > 7 && String.sub s 0 7 = "sample:" -> (
      match float_of_string_opt (String.sub s 7 (String.length s - 7)) with
      | Some p when p >= 0.0 && p <= 1.0 -> Config.Sample p
      | _ -> raise (Wire.Protocol_error (Printf.sprintf "bad policy %S" s)))
    | Some s -> raise (Wire.Protocol_error (Printf.sprintf "bad policy %S" s))
  in
  let deadline =
    match get "deadline" with
    | Some s -> (
      match float_of_string_opt s with
      | Some d when d > 0.0 -> Some d
      | _ -> raise (Wire.Protocol_error (Printf.sprintf "bad deadline %S" s)))
    | None -> t.cfg.session_deadline
  in
  let faults =
    match get "inject-crash" with
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some (Fault.create ~crashes:n ())
      | _ -> None)
    | None -> None
  in
  let config =
    { Config.default with Config.backpressure; seed = Option.value seed ~default:Config.default.Config.seed }
  in
  (name, mode, config, deadline, faults)

let fresh_id t =
  Mutex.lock t.mu;
  let id = t.next_id in
  t.next_id <- id + 1;
  Mutex.unlock t.mu;
  id

let handle_session t conn tenant deadline_abs =
  let idle () = Unix.gettimeofday () +. t.cfg.idle_timeout in
  let frame_deadline () =
    match deadline_abs with None -> idle () | Some d -> Float.min (idle ()) d
  in
  let stall_seconds () =
    match deadline_abs with
    | Some d when Unix.gettimeofday () >= d -> (
      match t.cfg.session_deadline with Some s -> s | None -> t.cfg.idle_timeout)
    | _ -> t.cfg.idle_timeout
  in
  (* Every frame of the session is read into one buffer, which the
     tenant's decoder scans in place. *)
  let rd = Wire.reader () in
  let rec loop () =
    match Wire.read_frame_into ~deadline:(frame_deadline ()) rd conn.fd with
    | Some (Wire.Data, len) -> (
      match Tenant.feed_data tenant (Wire.payload rd) ~off:0 ~len with
      | Ok () -> if Tenant.aborted tenant then finish_and_report t conn tenant else loop ()
      | Error _ -> finish_and_report t conn tenant)
    | Some (Wire.Fin, _) ->
      (match Tenant.finish_stream tenant with Ok () | Error _ -> ());
      finish_and_report t conn tenant
    | Some (Wire.Status_req, _) ->
      (* live mid-session scrape on the same connection *)
      (try Wire.write_frame conn.fd Wire.Status_reply (Json.to_string (status_json t))
       with Unix.Unix_error _ | Sys_error _ -> ());
      loop ()
    | Some (ty, _) ->
      Tenant.abort tenant (Tenant.Corrupt (Printf.sprintf "unexpected %s frame" (Wire.frame_name ty)));
      finish_and_report t conn tenant
    | None ->
      (* EOF before FIN: the peer vanished; salvage for the ledger even
         though nobody is listening for the report *)
      Tenant.abort tenant Tenant.Disconnected;
      let r = Tenant.finalize tenant in
      record_closed t tenant r
    | exception Wire.Timeout ->
      Tenant.abort tenant (Tenant.Stalled (stall_seconds ()));
      finish_and_report t conn tenant
    | exception Wire.Protocol_error msg ->
      Tenant.abort tenant (Tenant.Corrupt msg);
      finish_and_report t conn tenant
  in
  loop ()

let handle_conn t conn =
  let finally () =
    (match conn.tenant with
    | Some tenant ->
      Pool.remove t.pool tenant;
      Admission.release t.admission
    | None -> ());
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Mutex.lock t.mu;
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    Mutex.unlock t.mu
  in
  Fun.protect ~finally @@ fun () ->
  match Wire.read_frame ~deadline:(Unix.gettimeofday () +. t.cfg.idle_timeout) conn.fd with
  | None -> ()
  | Some (Wire.Status_req, _) ->
    Wire.write_frame conn.fd Wire.Status_reply (Json.to_string (status_json t))
  | Some (Wire.Hello, payload) -> (
    match parse_hello t payload with
    | exception Wire.Protocol_error msg -> Wire.write_frame conn.fd Wire.Err msg
    | name, mode, config, deadline, faults -> (
      match Admission.try_admit t.admission with
      | Admission.Busy { retry_after_ms; draining } ->
        Wire.write_frame conn.fd Wire.Busy
          (Wire.kv_encode
             [
               ("retry-after-ms", string_of_int retry_after_ms);
               ("draining", if draining then "1" else "0");
             ])
      | Admission.Admit -> (
        match
          Tenant.create ~id:(fresh_id t) ~name ~mode ~config ~queue_budget:t.cfg.queue_budget
            ~batch_size:t.cfg.batch_size ?faults
            ~degraded:(fun () -> Admission.degraded t.admission)
            ~on_queue_delta:(Admission.queue_delta t.admission)
            ~on_enqueue:(fun () -> Pool.wake t.pool)
            ()
        with
        | exception Invalid_argument msg ->
          Admission.release t.admission;
          Wire.write_frame conn.fd Wire.Err msg
        | tenant ->
          conn.tenant <- Some tenant;
          Pool.add t.pool tenant;
          Wire.write_frame conn.fd Wire.Admit
            (Wire.kv_encode [ ("session", string_of_int (Tenant.id tenant)) ]);
          let deadline_abs = Option.map (fun d -> Unix.gettimeofday () +. d) deadline in
          handle_session t conn tenant deadline_abs)))
  | Some (ty, _) ->
    Wire.write_frame conn.fd Wire.Err
      (Printf.sprintf "expected HELLO or STATUS, got %s" (Wire.frame_name ty))
  | exception Wire.Timeout -> ()
  | exception Wire.Protocol_error msg -> (
    try Wire.write_frame conn.fd Wire.Err msg with Unix.Unix_error _ | Sys_error _ -> ())

(* -- lifecycle -------------------------------------------------------------- *)

let accept_loop t =
  let tid = ref 0 in
  while not (Atomic.get t.stop_requested) do
    match Unix.select [ t.lfd ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.lfd with
      | fd, _ ->
        incr tid;
        let conn = { fd; tenant = None; thread_id = !tid } in
        let th = Thread.create (fun () -> try handle_conn t conn with _ -> ()) () in
        Mutex.lock t.mu;
        t.conns <- conn :: t.conns;
        t.threads <- th :: t.threads;
        Mutex.unlock t.mu
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let start cfg =
  (* A peer that dies mid-write must surface as EPIPE on that one
     connection, never as a process-killing SIGPIPE: one dead client
     taking down the daemon would be the exact cross-tenant failure
     this whole module exists to prevent. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind lfd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen lfd 64
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      cfg;
      lfd;
      admission = Admission.create ~max_sessions:cfg.max_sessions ~degrade_watermark:cfg.degrade_watermark ();
      pool = Pool.create ~workers:cfg.workers ();
      mu = Mutex.create ();
      next_id = 1;
      conns = [];
      threads = [];
      closed_history = [];
      accept_thread = None;
      stop_requested = Atomic.make false;
      drained = false;
      started = Ddp_util.Clock.now ();
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  cfg.log (Printf.sprintf "ddpd listening on %s (%d workers, %d session slots)" cfg.socket_path
       cfg.workers cfg.max_sessions);
  t

let flush_metrics t =
  match t.cfg.metrics_out with
  | None -> ()
  | Some path ->
    (* crash-safe spool: a stop interrupted mid-write never leaves a
       truncated metrics file behind *)
    let tf = Ddp_util.Tmp_file.create ~path in
    (try
       output_string (Ddp_util.Tmp_file.oc tf) (Json.to_string (status_json t));
       output_char (Ddp_util.Tmp_file.oc tf) '\n';
       Ddp_util.Tmp_file.commit tf
     with e ->
       Ddp_util.Tmp_file.abort tf;
       raise e)

let request_stop t = Atomic.set t.stop_requested true

let stopping t = Atomic.get t.stop_requested

let stop t =
  Atomic.set t.stop_requested true;
  Mutex.lock t.mu;
  let already = t.drained in
  if not already then t.drained <- true;
  Mutex.unlock t.mu;
  if not already then begin
    Admission.begin_drain t.admission;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.lfd with Unix.Unix_error _ -> ());
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
    (* let in-flight sessions finish naturally *)
    let give_up = Unix.gettimeofday () +. t.cfg.drain_grace in
    while Admission.active t.admission > 0 && Unix.gettimeofday () < give_up do
      Thread.delay 0.02
    done;
    (* force-abort stragglers: they still get a salvaged Partial report *)
    Mutex.lock t.mu;
    let stragglers = t.conns in
    Mutex.unlock t.mu;
    List.iter
      (fun c ->
        (match c.tenant with
        | Some tenant -> Tenant.abort tenant (Tenant.Stalled t.cfg.drain_grace)
        | None -> ());
        try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      stragglers;
    Mutex.lock t.mu;
    let threads = t.threads in
    t.threads <- [];
    Mutex.unlock t.mu;
    List.iter (fun th -> try Thread.join th with _ -> ()) threads;
    Pool.shutdown t.pool;
    (try flush_metrics t with _ -> ());
    t.cfg.log "ddpd drained"
  end

let wait t =
  while not (Atomic.get t.stop_requested) do
    Thread.delay 0.05
  done;
  stop t
