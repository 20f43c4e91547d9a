(* One profiling session inside the daemon.

   Division of labor (and of telemetry domains — the Obs hub is
   single-writer per domain):

     receiver (connection thread, obs domain 0)
       decodes DATA bytes incrementally, batches events, enqueues under
       the backpressure policy, owns every state transition, finishes
       the engine and builds the report;

     pool (shared worker domains, obs domain 1)
       [pool_step] only: takes the busy flag by CAS, pops one batch,
       replays it into the engine behind an exception boundary.

   The busy CAS serializes all engine access (receiver included: it
   takes the flag before [finish]), so although many pool domains may
   serve a tenant over its lifetime, the engine always observes one
   strictly ordered event stream — a surviving tenant's dependence set
   is identical to a serial batch run by construction.

   The loss ledger (plain fields under [mu]) is mirrored write-for-write
   into the obs counters of whichever domain does the damage, so
   [Partial.loss] and the scraped counters agree exactly — the chaos
   harness's headline check. *)

module Event = Ddp_minir.Event
module Trace_file = Ddp_minir.Trace_file
module Config = Ddp_core.Config
module Engine = Ddp_core.Engine
module Health = Ddp_core.Health
module Dep = Ddp_core.Dep
module Dep_store = Ddp_core.Dep_store
module Fault = Ddp_core.Fault
module Obs = Ddp_obs.Obs
module Json = Ddp_obs.Json

(* Force the built-in engine registrations: the daemon resolves modes
   through the same registry as the CLI, but nothing else in this
   library links Profiler. *)
let _builtin = Ddp_core.Engines.builtin

type state = Admitted | Streaming | Draining | Closed

let state_name = function
  | Admitted -> "admitted"
  | Streaming -> "streaming"
  | Draining -> "draining"
  | Closed -> "closed"

type abort_cause =
  | Corrupt of string
  | Stalled of float
  | Crashed of Health.worker_fault
  | Disconnected

type batch = Event.t list * int  (* events (in order), count *)

type t = {
  id : int;
  name : string;
  mode : string;
  base_policy : Config.backpressure;
  queue_budget : int;
  batch_size : int;
  faults : Fault.t option;
  degraded : unit -> bool;
  on_queue_delta : int -> unit;
  on_enqueue : unit -> unit;
  session : Engine.session;
  decoder : Trace_file.Stream.t;
  obs : Obs.t;
  rng : Random.State.t;
  started : float;
  mu : Mutex.t;
  cond : Condition.t;  (* queue space / abort / drain progress *)
  queue : batch Queue.t;
  busy : bool Atomic.t;
  (* receiver-only decode accumulation (no lock needed) *)
  mutable pending : Event.t list;  (* reversed *)
  mutable pending_n : int;
  mutable events_received : int;
  (* shared state under [mu] *)
  mutable st : state;
  mutable queued_batches : int;
  mutable abort_cause : abort_cause option;
  mutable escalations : int;
  mutable events_processed : int;
  (* loss ledger, mirrored into obs counters *)
  mutable dropped_chunks : int;
  mutable dropped_events : int;
  mutable unprocessed : int;
  mutable crash_faults : Health.worker_fault list;
}

(* The daemon multiplexes N sessions over one fixed pool; an engine that
   spawns its own domains per session would defeat that (and violate the
   pool's serial-access discipline). *)
let denied_modes = [ "parallel" ]

(* When the daemon as a whole is overloaded, lossless Block sessions are
   escalated to this sampling policy — shed load fairly before refusing
   admissions entirely. *)
let degrade_sample_p = 0.5

let create ~id ~name ~mode ~config ~queue_budget ~batch_size ?faults ~degraded ~on_queue_delta
    ~on_enqueue () =
  if List.mem mode denied_modes then
    invalid_arg (Printf.sprintf "mode %S runs its own domain pool; not allowed in the daemon" mode);
  let engine = Engine.get mode in
  let session = engine.Engine.create config in
  {
    id;
    name;
    mode;
    base_policy = config.Config.backpressure;
    queue_budget = max 1 queue_budget;
    batch_size = max 1 batch_size;
    faults;
    degraded;
    on_queue_delta;
    on_enqueue;
    session;
    decoder = Trace_file.Stream.create ();
    obs = Obs.create ~domains:2 ();
    rng = Random.State.make [| config.Config.seed; id; 0x5e55 |];
    started = Ddp_util.Clock.now ();
    mu = Mutex.create ();
    cond = Condition.create ();
    queue = Queue.create ();
    busy = Atomic.make false;
    pending = [];
    pending_n = 0;
    events_received = 0;
    st = Admitted;
    queued_batches = 0;
    abort_cause = None;
    escalations = 0;
    events_processed = 0;
    dropped_chunks = 0;
    dropped_events = 0;
    unprocessed = 0;
    crash_faults = [];
  }

let id t = t.id
let name t = t.name
let mode t = t.mode
let state t = t.st
let queued t = t.queued_batches
let escalations t = t.escalations
let aborted t = t.abort_cause <> None

let abort t cause =
  Mutex.lock t.mu;
  if t.abort_cause = None && t.st <> Closed then begin
    t.abort_cause <- Some cause;
    Condition.broadcast t.cond
  end;
  Mutex.unlock t.mu

(* -- receiver side: decode, batch, enqueue --------------------------------- *)

let drop_ledger t ~dom (_, n) =
  (* caller holds [mu] (dom 0) or the busy flag (dom 1) *)
  t.dropped_chunks <- t.dropped_chunks + 1;
  t.dropped_events <- t.dropped_events + n;
  Obs.incr t.obs ~dom Obs.C.bp_dropped_chunks;
  Obs.add t.obs ~dom Obs.C.bp_dropped_events n

(* Enqueue one full batch under the backpressure policy.  Returns once
   the batch is queued, dropped (with its loss accounted) or the tenant
   is aborted.  Blocking here blocks the connection thread, which is
   exactly socket backpressure on the client. *)
let enqueue_batch t ((_, n) as batch) =
  Mutex.lock t.mu;
  let escalated = ref false in
  let queued = ref false in
  let rec attempt () =
    if t.abort_cause <> None || t.st = Closed then ()
    else if t.queued_batches < t.queue_budget then begin
      Queue.add batch t.queue;
      t.queued_batches <- t.queued_batches + 1;
      Obs.incr t.obs ~dom:0 Obs.C.chunks_pushed;
      Obs.add t.obs ~dom:0 Obs.C.chunk_events n;
      t.on_queue_delta 1;
      queued := true
    end
    else begin
      (* queue full: apply the (possibly escalated) policy *)
      let policy =
        match t.base_policy with
        | Config.Block when t.degraded () ->
          if not !escalated then begin
            escalated := true;
            t.escalations <- t.escalations + 1
          end;
          Config.Sample degrade_sample_p
        | p -> p
      in
      match policy with
      | Config.Block ->
        Obs.incr t.obs ~dom:0 Obs.C.queue_full_stalls;
        Condition.wait t.cond t.mu;
        attempt ()
      | Config.Drop_new -> drop_ledger t ~dom:0 batch
      | Config.Drop_oldest ->
        let oldest = Queue.pop t.queue in
        t.queued_batches <- t.queued_batches - 1;
        t.on_queue_delta (-1);
        drop_ledger t ~dom:0 oldest;
        attempt ()
      | Config.Sample p ->
        if Random.State.float t.rng 1.0 < p then drop_ledger t ~dom:0 batch
        else begin
          Obs.incr t.obs ~dom:0 Obs.C.queue_full_stalls;
          Condition.wait t.cond t.mu;
          attempt ()
        end
    end
  in
  attempt ();
  Mutex.unlock t.mu;
  if !queued then t.on_enqueue ()

let flush_pending t =
  if t.pending_n > 0 then begin
    let batch = (List.rev t.pending, t.pending_n) in
    t.pending <- [];
    t.pending_n <- 0;
    enqueue_batch t batch
  end

(* Pull every currently decodable event out of the stream decoder.
   [Need_more] is the normal resting state between DATA frames. *)
let drain_decoder t =
  let continue = ref true in
  while !continue do
    match Trace_file.Stream.next t.decoder with
    | Trace_file.Stream.Event e ->
      t.pending <- e :: t.pending;
      t.pending_n <- t.pending_n + 1;
      t.events_received <- t.events_received + 1;
      if t.pending_n >= t.batch_size then flush_pending t
    | Trace_file.Stream.Need_more | Trace_file.Stream.Done -> continue := false
  done

(* The decoder borrows [data] until it is drained: [drain_decoder] runs
   to [Need_more], so the receiver may reuse the buffer on return. *)
let feed_data t data ~off ~len =
  if t.st = Admitted then t.st <- Streaming;
  match
    Trace_file.Stream.feed_slice t.decoder data ~off ~len;
    drain_decoder t
  with
  | () -> Ok ()
  | exception Trace_file.Parse_error msg ->
    abort t (Corrupt msg);
    Error msg

let finish_stream t =
  match
    Trace_file.Stream.eof t.decoder;
    drain_decoder t;
    flush_pending t
  with
  | () ->
    t.st <- Draining;
    Ok ()
  | exception Trace_file.Parse_error msg ->
    abort t (Corrupt msg);
    Error msg

(* -- pool side: one batch per busy acquisition ----------------------------- *)

let take_batch t =
  Mutex.lock t.mu;
  let r =
    if t.abort_cause <> None || t.st = Closed || Queue.is_empty t.queue then None
    else begin
      let b = Queue.pop t.queue in
      t.queued_batches <- t.queued_batches - 1;
      t.on_queue_delta (-1);
      Condition.broadcast t.cond;
      Some b
    end
  in
  Mutex.unlock t.mu;
  r

let record_crash t ~worker ~exn_text ~backtrace batch =
  (* pool side: holds the busy flag, so dom 1 writes are serialized *)
  let wf = { Health.worker; exn_text; backtrace } in
  drop_ledger t ~dom:1 batch;
  Obs.incr t.obs ~dom:1 Obs.C.worker_crashes;
  Mutex.lock t.mu;
  t.crash_faults <- wf :: t.crash_faults;
  Mutex.unlock t.mu;
  abort t (Crashed wf)

let pool_step t ~worker =
  if not (Atomic.compare_and_set t.busy false true) then false
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set t.busy false)
      (fun () ->
        match take_batch t with
        | None -> false
        | Some ((events, n) as batch) ->
          (try
             (match t.faults with
             | Some f when Fault.take_crash f ~worker -> raise (Fault.Injected_crash worker)
             | _ -> ());
             Event.replay t.session.Engine.hooks events;
             Obs.add t.obs ~dom:1 Obs.C.events_processed n;
             Obs.incr t.obs ~dom:1 Obs.C.chunks_processed;
             Mutex.lock t.mu;
             t.events_processed <- t.events_processed + n;
             Mutex.unlock t.mu
           with e ->
             record_crash t ~worker ~exn_text:(Printexc.to_string e)
               ~backtrace:(Printexc.get_backtrace ()) batch);
          true)

(* -- finalization ----------------------------------------------------------- *)

type result = {
  health : Health.t;
  deps : (Dep.t * int) list;
  distinct : int;
  occurrences : int;
  events_received : int;
  events_processed : int;
  counters : (string * int) list;
  elapsed : float;
}

let reported_counters =
  Obs.C.
    [
      chunks_pushed;
      chunk_events;
      chunks_processed;
      events_processed;
      queue_full_stalls;
      bp_dropped_chunks;
      bp_dropped_events;
      unprocessed_chunks;
      worker_crashes;
    ]

let counters_of merged =
  List.map (fun id -> (Obs.C.names.(id), merged.(id))) reported_counters

let own_health t =
  (* caller: after the queue write-off, holding nothing *)
  let loss =
    {
      Health.no_loss with
      Health.dropped_chunks = t.dropped_chunks;
      dropped_events = t.dropped_events;
      unprocessed_chunks = t.unprocessed;
    }
  in
  let reasons =
    match t.abort_cause with
    | None -> []
    | Some (Corrupt msg) -> [ Health.Stream_corrupt msg ]
    | Some (Stalled s) -> [ Health.Deadline s ]
    | Some (Crashed _) -> [ Health.Worker_crash ]
    | Some Disconnected -> [ Health.Stream_corrupt "client disconnected mid-stream" ]
  in
  Health.degraded ~reasons ~faults:(List.rev t.crash_faults) loss

let finalize t =
  (* 1. wait for the pool to drain the queue (or for an abort) *)
  Mutex.lock t.mu;
  while t.queued_batches > 0 && t.abort_cause = None do
    Condition.wait t.cond t.mu
  done;
  Mutex.unlock t.mu;
  (* 2. exclusive engine access: once we hold the flag the pool is out
        for good (take_batch refuses Closed/aborted tenants) *)
  while not (Atomic.compare_and_set t.busy false true) do
    Thread.yield ()
  done;
  (* 3. write off whatever an abort left behind *)
  Mutex.lock t.mu;
  while not (Queue.is_empty t.queue) do
    ignore (Queue.pop t.queue : batch);
    t.queued_batches <- t.queued_batches - 1;
    t.on_queue_delta (-1);
    t.unprocessed <- t.unprocessed + 1;
    Obs.incr t.obs ~dom:0 Obs.C.unprocessed_chunks
  done;
  Mutex.unlock t.mu;
  if t.pending_n > 0 then begin
    (* decoded but never enqueued (abort cut the stream mid-batch) *)
    t.pending <- [];
    t.pending_n <- 0;
    t.unprocessed <- t.unprocessed + 1;
    Obs.incr t.obs ~dom:0 Obs.C.unprocessed_chunks
  end;
  (* 4. finish the engine and merge healths *)
  let eo =
    try t.session.Engine.finish ()
    with e ->
      (* engine teardown is inside the isolation boundary too *)
      let wf =
        { Health.worker = 0; exn_text = Printexc.to_string e; backtrace = Printexc.get_backtrace () }
      in
      Mutex.lock t.mu;
      t.crash_faults <- wf :: t.crash_faults;
      if t.abort_cause = None then t.abort_cause <- Some (Crashed wf);
      Mutex.unlock t.mu;
      {
        Engine.deps = Dep_store.create ();
        regions = Ddp_core.Region.create ();
        health = Health.degraded ~reasons:[ Health.Worker_crash ] Health.no_loss;
        store_bytes = 0;
        extra = Engine.No_extra;
      }
  in
  let health = Health.merge eo.Engine.health (own_health t) in
  let deps =
    Dep_store.to_list eo.Engine.deps |> List.sort (fun (a, _) (b, _) -> Dep.compare a b)
  in
  let snap = Obs.snapshot t.obs in
  Mutex.lock t.mu;
  t.st <- Closed;
  Condition.broadcast t.cond;
  Mutex.unlock t.mu;
  Atomic.set t.busy false;
  {
    health;
    deps;
    distinct = Dep_store.distinct eo.Engine.deps;
    occurrences = Dep_store.total_occurrences eo.Engine.deps;
    events_received = t.events_received;
    events_processed = t.events_processed;
    counters = counters_of snap.Obs.counters;
    elapsed = Ddp_util.Clock.now () -. t.started;
  }

(* -- JSON ------------------------------------------------------------------- *)

let loss_json (l : Health.loss) =
  Json.Obj
    [
      ("dropped_chunks", Json.Int l.Health.dropped_chunks);
      ("dropped_events", Json.Int l.Health.dropped_events);
      ("dead_partitions", Json.Int l.Health.dead_partitions);
      ("unprocessed_chunks", Json.Int l.Health.unprocessed_chunks);
    ]

let health_fields = function
  | Health.Complete ->
    [
      ("complete", Json.Bool true);
      ("reasons", Json.List []);
      ("worker_faults", Json.Int 0);
      ("loss", loss_json Health.no_loss);
    ]
  | Health.Partial d ->
    [
      ("complete", Json.Bool false);
      ( "reasons",
        Json.List (List.map (fun r -> Json.Str (Health.reason_to_string r)) d.Health.reasons) );
      ("worker_faults", Json.Int (List.length d.Health.faults));
      ("loss", loss_json d.Health.loss);
    ]

let dep_json (d, count) =
  Json.List
    [
      Json.Str (Dep.kind_to_string d.Dep.kind);
      Json.Int d.Dep.sink;
      Json.Int d.Dep.src;
      Json.Bool d.Dep.race;
      Json.Int count;
    ]

let result_json t (r : result) =
  Json.Obj
    ([
       ("schema", Json.Str "ddpd-report/1");
       ("session", Json.Int t.id);
       ("name", Json.Str t.name);
       ("mode", Json.Str t.mode);
     ]
    @ health_fields r.health
    @ [
        ("deps", Json.List (List.map dep_json r.deps));
        ("distinct", Json.Int r.distinct);
        ("occurrences", Json.Int r.occurrences);
        ("events_received", Json.Int r.events_received);
        ("events_processed", Json.Int r.events_processed);
        ("escalations", Json.Int t.escalations);
        ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
        ("elapsed", Json.Float r.elapsed);
      ])

let status_json t =
  (* live scrape: [counters_now] reads are unfenced but untorn *)
  let merged = Obs.counters_now t.obs in
  Json.Obj
    [
      ("session", Json.Int t.id);
      ("name", Json.Str t.name);
      ("mode", Json.Str t.mode);
      ("state", Json.Str (state_name t.st));
      ("queued", Json.Int t.queued_batches);
      ("escalations", Json.Int t.escalations);
      ("aborted", Json.Bool (t.abort_cause <> None));
      ("events_received", Json.Int t.events_received);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters_of merged)));
    ]
