(* The parallel profiler (paper Sec. IV, Fig. 2).

   The main thread executes the instrumented program and fills per-worker
   chunks of memory accesses; addresses are assigned to workers by
   Dispatch (modulo rule + hot-address redistribution) so every address
   is owned by exactly one worker and dependence types stay correct.
   Full chunks travel through per-worker bounded queues — lock-free SPSC
   rings by default, the mutex-based variant for the Fig. 5 comparison —
   and workers run Algorithm 1 on their own signature pair, storing
   dependences in thread-local maps that are merged at the end.  Empty
   chunks return to the producer over per-worker recycle queues, so
   steady-state profiling allocates nothing.

   Redistribution (Sec. IV-A) uses a drain barrier: the producer waits
   until every worker has consumed its queue (pushed == processed), then
   migrates the signature slots of moved addresses and resumes.  The
   paper performs at most ~20 redistributions per run, so the barrier
   cost is negligible.

   On the 1-core evaluation machine workers cannot run truly in parallel;
   idle loops therefore back off to the OS scheduler after a bounded spin
   so the producer is not starved.  Per-worker event counts and busy
   times are recorded for the multicore makespan model described in
   DESIGN.md.

   Supervision (ISSUE 4): the pipeline degrades gracefully instead of
   hanging.  Every worker runs inside an exception boundary that records
   the exception + backtrace in a per-worker status cell; the producer
   plays supervisor at its chunk-granularity blocking points (flush,
   queue-full retries, drain waits), where it notices dead workers and
   an expired [Config.deadline], releases the drain barrier, and routes
   the run to a salvage path: [finish] always returns, merging the
   surviving workers' dependence maps and reporting the damage as a
   {!Health.t} with exact loss accounting.  Queue-full handling is
   policy-driven ([Config.backpressure]): [Block] is the paper's
   lossless spin-wait; [Drop_new]/[Drop_oldest]/[Sample] trade recall
   for bounded producer latency, with every dropped chunk counted. *)

module Clock = Ddp_util.Clock
module Rng = Ddp_util.Rng
module Event = Ddp_minir.Event
module Obs = Ddp_obs.Obs

type queue = {
  try_push : Chunk.t -> bool;
  pop : unit -> Chunk.t option;
  steal : unit -> Chunk.t option;
      (* producer-side removal of the oldest queued chunk; always [None]
         on SPSC rings (the head is consumer-owned), so the Drop_oldest
         policy is gated to lock-based queues at [create] *)
  q_bytes : int;
  op_counts : unit -> int * int * int * int;  (* pushes, push fails, pops, pop empties *)
}

let dummy_chunk = Chunk.create ~capacity:1

let make_queue ~lock_free ~capacity =
  if lock_free then begin
    let q = Spsc_queue.create ~capacity ~dummy:dummy_chunk in
    {
      try_push = (fun c -> Spsc_queue.try_push q c);
      pop = (fun () -> Spsc_queue.try_pop q);
      steal = (fun () -> None);
      q_bytes = Spsc_queue.bytes q;
      op_counts = (fun () -> Spsc_queue.op_counts q);
    }
  end
  else begin
    let q = Locked_queue.create ~capacity ~dummy:dummy_chunk in
    {
      try_push = (fun c -> Locked_queue.try_push q c);
      pop = (fun () -> Locked_queue.try_pop q);
      steal = (fun () -> Locked_queue.steal q);
      q_bytes = Locked_queue.bytes q;
      op_counts = (fun () -> Locked_queue.op_counts q);
    }
  end

(* Bounded spin, then yield the timeslice: mandatory on machines with
   fewer cores than domains. *)
let backoff spins =
  if spins < 64 then Domain.cpu_relax () else Unix.sleepf 0.000_05

(* Producer-side blocking points, exposed to the virtual scheduler. *)
type stall =
  | Queue_full of int  (* worker id whose queue rejected a push *)
  | Drain_wait of int  (* worker id the drain barrier is waiting on *)

(* Virtual-scheduler callbacks (single-domain deterministic mode).
   [on_chunk w] fires before each chunk push to worker [w] — a plain
   interleaving opportunity; [on_stall] fires when the producer cannot
   make progress and MUST advance the named worker (via {!worker_step})
   or the run livelocks. *)
type vsched = {
  on_chunk : int -> unit;
  on_stall : stall -> unit;
}

(* Per-worker status cell: the exception boundary's single write, the
   supervisor's single read. *)
type worker_status =
  | Alive
  | Crashed of Health.worker_fault

type worker = {
  id : int;
  work_q : queue;
  recycle_q : queue;
  reads : Sig_store.t;
  writes : Sig_store.t;
  algo : Algo.Over_signature.t;
  deps : Dep_store.t;
  pushed : int Atomic.t;  (* chunks handed to this worker *)
  processed : int Atomic.t;  (* chunks fully consumed *)
  status : worker_status Atomic.t;
  faults : Fault.t option;  (* crash injection, read on the worker's own domain *)
  mutable events : int;
  mutable busy : float;
  obs : Obs.t;  (* worker [id] writes telemetry domain [id + 1] *)
}

type t = {
  config : Config.t;
  workers : worker array;
  dispatch : Dispatch.t;
  open_chunks : Chunk.t array;
  regions : Region.t;
  global_deps : Dep_store.t;
  stop : bool Atomic.t;
  kill : bool Atomic.t;
  (* Hard abort (deadline expiry): workers exit at their next pop even
     with chunks still queued.  A worker crash does NOT set this —
     survivors keep processing so the salvage merge is as complete as
     possible. *)
  virtual_mode : bool;  (* no domains; workers advance via worker_step *)
  obs : Obs.t;  (* producer writes telemetry domain 0 *)
  bp_rng : Rng.t;  (* Sample backpressure coin, seeded from Config.seed *)
  mutable deadline_at : float;  (* absolute wall clock; infinity = no watchdog *)
  mutable abort_reasons : Health.abort_reason list;  (* detection order *)
  mutable dropped_chunks : int;
  mutable dropped_events : int;
  mutable vsched : vsched option;
  mutable domains : unit Domain.t array;
  mutable chunks_pushed : int;
  mutable last_redistribution_check : int;  (* chunks_pushed at the last check *)
  mutable extra_chunks : int;  (* allocated beyond the initial pool *)
  account : (Ddp_util.Mem_account.t * string) option;
}

type result = {
  deps : Dep_store.t;
  regions : Region.t;
  health : Health.t;
  chunks : int;
  redistributions : int;
  per_worker_events : int array;
  per_worker_busy : float array;
  signature_bytes : int;
  queue_bytes : int;
  chunk_bytes : int;
  dispatch_bytes : int;
}

(* -- worker side --------------------------------------------------------- *)

let process_chunk w chunk =
  let n = Chunk.length chunk in
  for i = 0 to n - 1 do
    let addr = Chunk.addr chunk i in
    let op = Chunk.op chunk i in
    if op = Chunk.op_read then
      Algo.Over_signature.on_read w.algo ~addr ~payload:(Chunk.payload chunk i)
        ~time:(Chunk.time chunk i)
    else if op = Chunk.op_write then
      Algo.Over_signature.on_write w.algo ~addr ~payload:(Chunk.payload chunk i)
        ~time:(Chunk.time chunk i)
    else Algo.Over_signature.on_free w.algo ~addr
  done;
  w.events <- w.events + n

(* Benchmark-only perturbation hook: busy-spin a fraction of each
   chunk's measured process time after processing it.  Exists so the CI
   perf ratchet can prove it catches regressions — `make
   bench-ratchet-selftest` seeds DDP_PERTURB_WORKER=0.10 and expects the
   worker_step_ns gate to fail.  Read once, at module initialisation:
   every worker domain reads it, and a [lazy] forced by two domains at
   once raises [CamlinternalLazy.Undefined] in one of them.  0.0 (unset)
   costs one float compare per chunk. *)
let perturb_worker =
  match Sys.getenv_opt "DDP_PERTURB_WORKER" with
  | Some s -> ( match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 0.0)
  | None -> 0.0

(* Consume one popped chunk: the worker's unit of progress, shared by the
   domain loop and the virtual scheduler's worker_step. *)
let consume (w : worker) chunk =
  let on = Obs.enabled w.obs in
  let dom = w.id + 1 in
  if on then Obs.enter w.obs ~dom Obs.Tag.Process;
  let n = Chunk.length chunk in
  let t0 = Clock.now () in
  process_chunk w chunk;
  let t1 = Clock.now () in
  (let f = perturb_worker in
   if f > 0.0 then begin
     let until = t1 +. ((t1 -. t0) *. f) in
     while Clock.now () < until do
       ()
     done
   end);
  w.busy <- w.busy +. (Clock.now () -. t0);
  Chunk.clear chunk;
  Atomic.incr w.processed;
  (* Recycle; if the return queue is full the chunk is dropped and the
     producer will allocate a fresh one. *)
  let recycled = w.recycle_q.try_push chunk in
  if on then begin
    let d = Obs.leave w.obs ~dom ~arg:n in
    Obs.observe w.obs ~dom Obs.H.process_ns d;
    Obs.add w.obs ~dom Obs.C.busy_ns d;
    Obs.add w.obs ~dom Obs.C.events_processed n;
    Obs.incr w.obs ~dom Obs.C.chunks_processed;
    if not recycled then Obs.incr w.obs ~dom Obs.C.recycle_drops
  end

let is_dead w = match Atomic.get w.status with Alive -> false | Crashed _ -> true

(* The worker-side exception boundary: any exception (including an
   injected {!Fault.Injected_crash}) is captured — text + backtrace —
   into the worker's status cell, and the worker retires instead of
   taking the whole process down.  Returns false on death.  A chunk
   popped but not processed stays counted in [pushed - processed], so
   the salvage accounting sees it as unprocessed. *)
let guarded_consume (w : worker) chunk =
  match
    match w.faults with
    | Some f when Fault.take_crash f ~worker:w.id -> raise (Fault.Injected_crash w.id)
    | _ -> consume w chunk
  with
  | () -> true
  | exception e ->
    let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
    Atomic.set w.status
      (Crashed { Health.worker = w.id; exn_text = Printexc.to_string e; backtrace = bt });
    if Obs.enabled w.obs then begin
      let dom = w.id + 1 in
      (* The exception may have escaped between consume's enter and
         leave; cancel the orphaned Process frame so the stack stays
         balanced for the Worker root span. *)
      if Obs.current_tag w.obs ~dom = Some Obs.Tag.Process then Obs.cancel w.obs ~dom;
      Obs.incr w.obs ~dom Obs.C.worker_crashes
    end;
    false

let worker_loop stop kill w =
  (* Root frame for the worker domain: everything the domain allocates
     while looping — backoff closures, signature growth, boxing in
     process_chunk not covered by a Process frame — is attributed to
     Worker, so the per-stage table's total tracks the process-global
     allocation.  bind_domain lets Gc.Memprof callbacks on this domain
     find this cell. *)
  let dom = w.id + 1 in
  let on = Obs.enabled w.obs in
  if on then begin
    Obs.bind_domain w.obs ~dom;
    Obs.enter w.obs ~dom Obs.Tag.Worker
  end;
  let spins = ref 0 in
  let running = ref true in
  while !running && not (Atomic.get kill) do
    match w.work_q.pop () with
    | Some chunk ->
      spins := 0;
      if not (guarded_consume w chunk) then running := false
    | None ->
      if Atomic.get stop && Atomic.get w.pushed = Atomic.get w.processed then running := false
      else begin
        incr spins;
        backoff !spins
      end
  done;
  if on then ignore (Obs.leave w.obs ~dom ~arg:w.id : int)

(* -- producer side ------------------------------------------------------- *)

(* Pool allocations (chunks, queues, dispatch maps) get their own
   category regardless of the caller-supplied one. *)
let charge t n =
  match t.account with
  | Some (acct, _) -> Ddp_util.Mem_account.add acct "pools" n
  | None -> ()

let acquire_chunk t w =
  match w.recycle_q.pop () with
  | Some c -> c
  | None ->
    t.extra_chunks <- t.extra_chunks + 1;
    if Obs.enabled t.obs then Obs.incr t.obs ~dom:0 Obs.C.extra_chunks;
    let c = Chunk.create ~capacity:t.config.chunk_size in
    charge t (Chunk.bytes c);
    c

(* -- supervisor ----------------------------------------------------------- *)

(* The supervisor is not a separate thread: the producer runs these
   checks at its chunk-granularity blocking points (flush, queue-full
   retries, drain waits).  Pure atomic reads when healthy; the
   per-access hot path never sees any of it. *)

let abort_code = function
  | Health.Worker_crash -> 0
  | Health.Deadline _ -> 1
  | Health.Stream_corrupt _ -> 2

(* Record an abort reason once per constructor; a deadline abort also
   sets [kill] so workers exit at their next pop. *)
let note_abort t reason =
  let same a b =
    match (a, b) with
    | Health.Worker_crash, Health.Worker_crash -> true
    | Health.Deadline _, Health.Deadline _ -> true
    | Health.Stream_corrupt _, Health.Stream_corrupt _ -> true
    | _ -> false
  in
  if not (List.exists (same reason) t.abort_reasons) then begin
    t.abort_reasons <- t.abort_reasons @ [ reason ];
    (match reason with Health.Deadline _ -> Atomic.set t.kill true | _ -> ());
    if Obs.enabled t.obs then begin
      Obs.incr t.obs ~dom:0 Obs.C.aborts;
      Obs.instant t.obs ~dom:0 Obs.Tag.Abort ~arg:(abort_code reason)
    end
  end

let aborted t = t.abort_reasons <> []

let deadline_passed t = t.deadline_at < infinity && Clock.now () >= t.deadline_at

(* One supervisor beat: notice dead workers and an expired deadline. *)
let supervise t =
  Array.iter (fun w -> if is_dead w then note_abort t Health.Worker_crash) t.workers;
  if deadline_passed t then
    note_abort t (Health.Deadline (match t.config.deadline with Some d -> d | None -> 0.0))

(* Exact drop accounting, mirrored into Obs so the two can be compared
   in tests. *)
let account_drop t ~events =
  t.dropped_chunks <- t.dropped_chunks + 1;
  t.dropped_events <- t.dropped_events + events;
  if Obs.enabled t.obs then begin
    Obs.incr t.obs ~dom:0 Obs.C.bp_dropped_chunks;
    Obs.add t.obs ~dom:0 Obs.C.bp_dropped_events events
  end

(* Virtual mode: advance worker [w_id] by one chunk.  Returns false when
   its queue is empty (or the worker has crashed).  Only meaningful
   without domains — with real workers running this would violate SPSC
   single-consumer ownership. *)
let worker_step t w_id =
  let w = t.workers.(w_id) in
  if is_dead w then false
  else
    match t.config.faults with
    | Some f when Fault.take_stall f ~worker:w_id ->
      false (* injected stall: the worker declines this opportunity *)
    | _ -> (
      match w.work_q.pop () with
      | Some chunk -> guarded_consume w chunk
      | None -> false)

(* One blocked-producer beat: under the virtual scheduler, hand control
   to the schedule chooser (which must advance the named worker); in
   virtual mode without a chooser, advance the blocked-on worker
   directly (a plain sequential schedule); with real domains, back off
   and retry. *)
let stall t reason spins =
  match t.vsched with
  | Some vs -> vs.on_stall reason
  | None ->
    if t.virtual_mode then (
      match reason with
      | Queue_full w | Drain_wait w -> ignore (worker_step t w : bool))
    else begin
      incr spins;
      backoff !spins
    end

let queue_depth t w_id =
  let w = t.workers.(w_id) in
  Atomic.get w.pushed - Atomic.get w.processed

(* Drain barrier: wait until every worker has consumed everything pushed
   to it.  Used by redistribution and at shutdown.  Supervised: a dead
   worker (or an expired deadline) releases the wait on that worker
   instead of spinning forever on a [processed] count that can no longer
   advance.  Returns true iff every worker fully drained. *)
let drain t =
  let on = Obs.enabled t.obs in
  if on then Obs.enter t.obs ~dom:0 Obs.Tag.Drain;
  let waited = ref 0 in
  let complete = ref true in
  Array.iter
    (fun w ->
      if Atomic.get w.pushed <> Atomic.get w.processed then begin
        incr waited;
        if on then Obs.enter t.obs ~dom:0 Obs.Tag.Drain_wait;
        let spins = ref 0 in
        let give_up = ref false in
        while (not !give_up) && Atomic.get w.pushed <> Atomic.get w.processed do
          supervise t;
          if is_dead w || Atomic.get t.kill then begin
            give_up := true;
            complete := false
          end
          else stall t (Drain_wait w.id) spins
        done;
        if on then begin
          let d = Obs.leave t.obs ~dom:0 ~arg:w.id in
          Obs.incr t.obs ~dom:0 Obs.C.drain_stalls;
          Obs.add t.obs ~dom:0 Obs.C.stall_ns d;
          Obs.observe t.obs ~dom:0 Obs.H.stall_ns d
        end
      end)
    t.workers;
  if on then ignore (Obs.leave t.obs ~dom:0 ~arg:!waited : int);
  !complete

(* Move the signature state of a redistributed address (Sec. IV-A).
   Safe only while drained. *)
let migrate t ~addr ~from_w ~to_w =
  let src = t.workers.(from_w) and dst = t.workers.(to_w) in
  let move src_store dst_store =
    let payload = Sig_store.probe src_store ~addr in
    if payload <> 0 then begin
      Sig_store.set dst_store ~addr ~payload ~time:(Sig_store.probe_time src_store ~addr);
      Sig_store.remove src_store ~addr
    end
  in
  move src.reads dst.reads;
  move src.writes dst.writes

(* Drop_oldest victim: remove the consumer's oldest queued chunk to make
   room.  The victim was counted in [pushed] and will never be
   processed, so the count is rolled back to keep the drain barrier
   invariant (pushed = processed once idle). *)
let steal_oldest t (w : worker) =
  match w.work_q.steal () with
  | None -> ()  (* the worker emptied its queue concurrently *)
  | Some victim ->
    Atomic.decr w.pushed;
    account_drop t ~events:(Chunk.length victim);
    Chunk.clear victim;
    ignore (w.recycle_q.try_push victim : bool)

(* Push one worker's open chunk (if non-empty) without triggering a
   redistribution check. *)
let flush_chunk t w_id =
  let chunk = t.open_chunks.(w_id) in
  if Chunk.length chunk > 0 then begin
    let w = t.workers.(w_id) in
    supervise t;
    if is_dead w || Atomic.get t.kill then begin
      (* The destination can no longer absorb work (dead partition, or a
         hard deadline abort): drop with exact accounting rather than
         block on a queue nobody will ever empty. *)
      account_drop t ~events:(Chunk.length chunk);
      Chunk.clear chunk
    end
    else begin
      let on = Obs.enabled t.obs in
      if on then Obs.enter t.obs ~dom:0 Obs.Tag.Flush;
      (* Fault injection (chunk granularity, compiled to one match when
         off): simulated corruption and back-pressure storms. *)
      (match t.config.faults with
      | Some f ->
        if Fault.take_truncation f then Chunk.truncate chunk (Chunk.length chunk - 1);
        let storm = Fault.take_queue_full f in
        let spins = ref 0 in
        for _ = 1 to storm do
          stall t (Queue_full w_id) spins
        done
      | None -> ());
      (match t.vsched with Some vs -> vs.on_chunk w_id | None -> ());
      (* The occupancy must be read before the push: once the chunk is in
         the queue the consumer may clear it concurrently. *)
      let occupancy = Chunk.length chunk in
      Atomic.incr w.pushed;
      let delivered = ref (w.work_q.try_push chunk) in
      let dropped = ref false in
      if not !delivered then begin
        (* Blocked on a full queue: the backpressure policy decides, per
           queue-full event, between waiting and shedding.  One span for
           the whole wait (never one event per spin — that would flood
           the ring), with the retry count as a counter. *)
        if on then Obs.enter t.obs ~dom:0 Obs.Tag.Queue_full;
        let retries = ref 0 in
        let spins = ref 0 in
        let abandon () =
          Atomic.decr w.pushed;
          account_drop t ~events:occupancy;
          Chunk.clear chunk;
          dropped := true
        in
        let shed =
          match t.config.backpressure with
          | Config.Block | Config.Drop_oldest -> fun () -> false
          | Config.Drop_new -> fun () -> true
          | Config.Sample p -> fun () -> Rng.float t.bp_rng 1.0 < p
        in
        let oldest = t.config.backpressure = Config.Drop_oldest in
        while (not !delivered) && not !dropped do
          if shed () then abandon ()
          else begin
            supervise t;
            if is_dead w || Atomic.get t.kill then abandon ()
            else begin
              if oldest then steal_oldest t w
              else begin
                incr retries;
                stall t (Queue_full w_id) spins
              end;
              if w.work_q.try_push chunk then delivered := true
            end
          end
        done;
        if on then begin
          let d = Obs.leave t.obs ~dom:0 ~arg:w_id in
          Obs.incr t.obs ~dom:0 Obs.C.queue_full_stalls;
          Obs.add t.obs ~dom:0 Obs.C.queue_push_retries !retries;
          Obs.add t.obs ~dom:0 Obs.C.stall_ns d;
          Obs.observe t.obs ~dom:0 Obs.H.stall_ns d
        end
      end;
      if !delivered then begin
        t.open_chunks.(w_id) <- acquire_chunk t w;
        t.chunks_pushed <- t.chunks_pushed + 1;
        if on then begin
          ignore (Obs.leave t.obs ~dom:0 ~arg:w_id : int);
          Obs.incr t.obs ~dom:0 Obs.C.chunks_pushed;
          Obs.add t.obs ~dom:0 Obs.C.chunk_events occupancy;
          Obs.observe t.obs ~dom:0 Obs.H.chunk_occupancy occupancy
        end
      end
      else if on then
        (* Dropped by backpressure: the Flush frame is accounted (its
           allocation is real) but no span is emitted — the trace shows
           only delivered flushes, as before. *)
        Obs.cancel t.obs ~dom:0
    end
  end

(* One check per [interval] pushed chunks.  The trigger compares against
   the count at the last check rather than testing [chunks_pushed mod
   interval = 0]: several chunks can flush in one call path (full-chunk
   flush plus the flush-all inside a redistribution barrier), so the
   counter may step over a multiple — or sit exactly on one across
   several calls — making the modulo test skip intervals or fire twice
   at the same count. *)
let maybe_redistribute t =
  if aborted t then ()
    (* Redistribution is pointless (and migration unsafe without a full
       drain) once the run is degraded; the salvage path skips it. *)
  else begin
    let interval = t.config.redistribution_interval in
    let forced =
      match t.config.faults with
      | Some f -> Fault.take_forced_redistribution f
      | None -> false
    in
    if forced || (interval > 0 && t.chunks_pushed - t.last_redistribution_check >= interval)
    then begin
      t.last_redistribution_check <- t.chunks_pushed;
      let moves_needed =
        if forced then Dispatch.force_rebalance t.dispatch else Dispatch.rebalance t.dispatch
      in
      match moves_needed with
      | [] -> ()
      | moves ->
        let on = Obs.enabled t.obs in
        if on then Obs.enter t.obs ~dom:0 Obs.Tag.Redistribute;
        (* Accesses to a moved address may still sit in open chunks routed
           under the old assignment: flush everything, let the old owners
           consume it, and only then migrate signature state.  Without this
           barrier the old owner would process in-flight accesses against a
           signature whose slots were just migrated away. *)
        Array.iteri (fun w_id _ -> flush_chunk t w_id) t.open_chunks;
        (* Migrate only after a complete drain: a partial drain (worker
           death / deadline mid-barrier) leaves in-flight accesses that
           must not cross a signature migration. *)
        if drain t then
          List.iter (fun (addr, from_w, to_w) -> migrate t ~addr ~from_w ~to_w) moves;
        if on then begin
          let n = List.length moves in
          ignore (Obs.leave t.obs ~dom:0 ~arg:n : int);
          Obs.incr t.obs ~dom:0 Obs.C.redistributions;
          Obs.add t.obs ~dom:0 Obs.C.migrated_addrs n;
          Obs.observe t.obs ~dom:0 Obs.H.redistribute_moves n
        end
    end
  end

let flush t w_id =
  flush_chunk t w_id;
  maybe_redistribute t

let route t ~addr ~op ~payload ~time =
  Dispatch.note_access t.dispatch addr;
  let w = Dispatch.worker_of t.dispatch addr in
  let chunk = t.open_chunks.(w) in
  Chunk.push chunk ~addr ~op ~payload ~time;
  if Chunk.is_full chunk then flush t w

(* -- construction -------------------------------------------------------- *)

let create ?account ?(virtual_mode = false) (config : Config.t) =
  (match config.backpressure with
  | Config.Drop_oldest when config.lock_free ->
    invalid_arg
      "Parallel_profiler.create: Drop_oldest backpressure requires lock-based queues \
       (lock_free = false) — a producer cannot pop an SPSC ring"
  | Config.Sample p when not (p >= 0.0 && p <= 1.0) ->
    invalid_arg "Parallel_profiler.create: Sample backpressure probability must be in [0,1]"
  | _ -> ());
  let nw = max 1 config.workers in
  let obs = match config.obs with Some o -> o | None -> Obs.disabled in
  let sig_account = Option.map (fun (a, _) -> (a, "signatures")) account in
  let slots = Config.slots_per_worker { config with workers = nw } in
  let workers =
    Array.init nw (fun id ->
        let reads = Sig_store.create ?account:sig_account ~slots () in
        let writes = Sig_store.create ?account:sig_account ~slots () in
        let deps = Dep_store.create ?account:(Option.map (fun (a, _) -> (a, "deps-local")) account) () in
        let algo =
          Algo.Over_signature.create ~track_init:config.track_init
            ~war_requires_prior_write:config.war_requires_prior_write
            ~check_timestamps:config.check_timestamps ~reads ~writes ~deps ()
        in
        {
          id;
          work_q = make_queue ~lock_free:config.lock_free ~capacity:config.queue_capacity;
          recycle_q = make_queue ~lock_free:config.lock_free ~capacity:config.queue_capacity;
          reads;
          writes;
          algo;
          deps;
          pushed = Atomic.make 0;
          processed = Atomic.make 0;
          status = Atomic.make Alive;
          faults = config.faults;
          events = 0;
          busy = 0.0;
          obs;
        })
  in
  let regions = Region.create () in
  let global_deps =
    Dep_store.create ?account:(Option.map (fun (a, _) -> (a, "deps-global")) account) ()
  in
  {
    config = { config with workers = nw };
    workers;
    dispatch =
      Dispatch.create ~workers:nw ~sample:config.stats_sample ~hot_set_size:config.hot_set_size;
    open_chunks = Array.map (fun _ -> Chunk.create ~capacity:config.chunk_size) workers;
    regions;
    global_deps;
    stop = Atomic.make false;
    kill = Atomic.make false;
    virtual_mode;
    obs;
    bp_rng = Rng.create config.seed;
    deadline_at = (match config.deadline with Some d -> Clock.now () +. d | None -> infinity);
    abort_reasons = [];
    dropped_chunks = 0;
    dropped_events = 0;
    vsched = None;
    domains = [||];
    chunks_pushed = 0;
    last_redistribution_check = 0;
    extra_chunks = 0;
    account;
  }

let set_vsched t vs =
  if not t.virtual_mode then
    invalid_arg "Parallel_profiler.set_vsched: profiler was not created with ~virtual_mode";
  t.vsched <- Some vs

let start t =
  (* Charge the fixed pools once: open chunks and queues. *)
  Array.iter (fun c -> charge t (Chunk.bytes c)) t.open_chunks;
  Array.iter (fun w -> charge t (w.work_q.q_bytes + w.recycle_q.q_bytes)) t.workers;
  (* The deadline clock runs from here, not from create. *)
  (match t.config.deadline with
  | Some d -> t.deadline_at <- Clock.now () +. d
  | None -> ());
  (* Virtual mode runs everything on the calling domain: workers advance
     only through worker_step, driven by the vsched callbacks. *)
  if not t.virtual_mode then
    t.domains <-
      Array.map (fun w -> Domain.spawn (fun () -> worker_loop t.stop t.kill w)) t.workers

(* Same class subscriptions as the serial profiler: Memory and the free
   half of Alloc route into chunks, Region feeds the shared tracker on
   the producer domain; Frame/Sync stay unsubscribed. *)
let handler t =
  let memory : Event.memory_handler =
    {
      on_read =
        (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
          route t ~addr ~op:Chunk.op_read ~payload:(Payload.pack_unsafe ~loc ~var ~thread) ~time);
      on_write =
        (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
          route t ~addr ~op:Chunk.op_write ~payload:(Payload.pack_unsafe ~loc ~var ~thread) ~time);
    }
  in
  let alloc : Event.alloc_handler =
    {
      on_alloc = (fun ~base:_ ~len:_ ~var:_ -> ());
      on_free =
        (fun ~base ~len ~var:_ ->
          if t.config.lifetime_analysis then
            for a = base to base + len - 1 do
              route t ~addr:a ~op:Chunk.op_free ~payload:1 ~time:0
            done);
    }
  in
  Ddp_minir.Handler.make ~memory
    ~region:(Serial_profiler.region_handler t.regions)
    ~alloc ()

let hooks t = Ddp_minir.Handler.hooks (handler t)

let finish t =
  Array.iteri (fun w_id _ -> flush t w_id) t.open_chunks;
  let _fully_drained = drain t in
  Atomic.set t.stop true;
  Array.iter Domain.join t.domains;
  (* Domains have joined: worker status cells are final.  A crash on the
     very last chunk is caught here even if no producer blocking point
     observed it mid-run. *)
  supervise t;
  let faults =
    Array.to_list t.workers
    |> List.filter_map (fun w ->
           match Atomic.get w.status with Alive -> None | Crashed f -> Some f)
  in
  let unprocessed =
    Array.fold_left
      (fun acc (w : worker) -> acc + max 0 (Atomic.get w.pushed - Atomic.get w.processed))
      0 t.workers
  in
  let reasons =
    t.abort_reasons
    @
    match Region.corruption t.regions with
    | Some msg -> [ Health.Stream_corrupt msg ]
    | None -> []
  in
  let health =
    Health.degraded ~reasons ~faults
      {
        Health.dropped_chunks = t.dropped_chunks;
        dropped_events = t.dropped_events;
        dead_partitions = List.length faults;
        unprocessed_chunks = unprocessed;
      }
  in
  let on = Obs.enabled t.obs in
  if on && unprocessed > 0 then Obs.add t.obs ~dom:0 Obs.C.unprocessed_chunks unprocessed;
  if on then Obs.enter t.obs ~dom:0 Obs.Tag.Merge;
  (* Salvage merge: every *surviving* worker's partition.  A crashed
     worker's signature pair is suspect mid-chunk, so its partition is
     counted lost rather than merged. *)
  Array.iter
    (fun (w : worker) ->
      if not (is_dead w) then Dep_store.merge_into ~src:w.deps ~dst:t.global_deps)
    t.workers;
  if on then begin
    let d = Obs.leave t.obs ~dom:0 ~arg:(Array.length t.workers) in
    Obs.add t.obs ~dom:0 Obs.C.merge_ns d;
    (* Domains have joined: folding per-access-structure statistics into
       the worker cells is now race-free. *)
    Array.iter
      (fun (w : worker) ->
        let dom = w.id + 1 in
        Obs.add t.obs ~dom Obs.C.sig_occupied
          (Sig_store.occupied w.reads + Sig_store.occupied w.writes);
        Obs.add t.obs ~dom Obs.C.sig_overwrites
          (Sig_store.overwrites w.reads + Sig_store.overwrites w.writes);
        let add_ops (pushes, fails, pops, empties) =
          Obs.add t.obs ~dom:0 Obs.C.queue_pushes pushes;
          Obs.add t.obs ~dom:0 Obs.C.queue_push_failures fails;
          Obs.add t.obs ~dom:0 Obs.C.queue_pops pops;
          Obs.add t.obs ~dom:0 Obs.C.queue_pop_empties empties
        in
        add_ops (w.work_q.op_counts ());
        add_ops (w.recycle_q.op_counts ()))
      t.workers;
    Obs.add t.obs ~dom:0 Obs.C.bytes_signatures
      (Array.fold_left
         (fun acc (w : worker) -> acc + Sig_store.bytes w.reads + Sig_store.bytes w.writes)
         0 t.workers);
    Obs.add t.obs ~dom:0 Obs.C.bytes_queues
      (Array.fold_left
         (fun acc (w : worker) -> acc + w.work_q.q_bytes + w.recycle_q.q_bytes)
         0 t.workers);
    Obs.add t.obs ~dom:0 Obs.C.bytes_chunks
      ((Array.length t.open_chunks + t.extra_chunks) * Chunk.bytes t.open_chunks.(0));
    Obs.add t.obs ~dom:0 Obs.C.bytes_dispatch (Dispatch.bytes t.dispatch);
    Obs.add t.obs ~dom:0 Obs.C.dispatch_overrides (Dispatch.override_count t.dispatch);
    Obs.add t.obs ~dom:0 Obs.C.dispatch_stats_entries (Dispatch.stats_entries t.dispatch)
  end;
  charge t (Dispatch.bytes t.dispatch);
  {
    deps = t.global_deps;
    regions = t.regions;
    health;
    chunks = t.chunks_pushed;
    redistributions = Dispatch.redistributions t.dispatch;
    per_worker_events = Array.map (fun (w : worker) -> w.events) t.workers;
    per_worker_busy = Array.map (fun (w : worker) -> w.busy) t.workers;
    signature_bytes =
      Array.fold_left (fun acc (w : worker) -> acc + Sig_store.bytes w.reads + Sig_store.bytes w.writes) 0
        t.workers;
    queue_bytes = Array.fold_left (fun acc (w : worker) -> acc + w.work_q.q_bytes + w.recycle_q.q_bytes) 0 t.workers;
    chunk_bytes =
      (Array.length t.open_chunks + t.extra_chunks) * Chunk.bytes t.open_chunks.(0);
    dispatch_bytes = Dispatch.bytes t.dispatch;
  }

(* Profile one program end to end under the parallel profiler. *)
let profile ?account ?(config = Config.default) ?sched_seed ?input_seed ?symtab prog =
  let t = create ?account config in
  start t;
  let stats = Ddp_minir.Interp.run ~hooks:(hooks t) ?sched_seed ?input_seed ?symtab prog in
  let result = finish t in
  (result, stats)
