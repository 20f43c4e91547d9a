(** One profiling session inside the daemon: its engine session,
    incremental trace decoder, bounded batch queue, private telemetry
    hub and health ledger.

    State machine: [Admitted -> Streaming -> Draining -> Closed].
    The connection (receiver) thread owns decoding and all state
    transitions; shared-pool workers only ever run {!pool_step}, which
    takes the per-tenant busy flag (an [Atomic] CAS) before touching the
    engine — so the engine observes a strictly serial event stream and a
    non-victim session's dependence set is {e by construction} identical
    to a serial batch run of the same trace.

    Fault isolation: every failure mode (corrupt frame, truncated
    trace, injected or genuine engine crash, stall, mid-stream
    disconnect) lands in {!abort}, which flips this tenant — and only
    this tenant — to a [Partial] verdict with exact loss accounting;
    the loss ledger is mirrored one-for-one into the tenant's own
    {!Ddp_obs.Obs} counters so external scrapes and the report agree to
    the event. *)

type state = Admitted | Streaming | Draining | Closed

val state_name : state -> string

type abort_cause =
  | Corrupt of string  (** undecodable/truncated trace bytes *)
  | Stalled of float  (** idle or session deadline (seconds) expired *)
  | Crashed of Ddp_core.Health.worker_fault  (** engine step raised *)
  | Disconnected  (** peer vanished before FIN *)

type t

val create :
  id:int ->
  name:string ->
  mode:string ->
  config:Ddp_core.Config.t ->
  queue_budget:int ->
  batch_size:int ->
  ?faults:Ddp_core.Fault.t ->
  degraded:(unit -> bool) ->
  on_queue_delta:(int -> unit) ->
  on_enqueue:(unit -> unit) ->
  unit ->
  t
(** Opens an engine session for [mode] (raises [Invalid_argument] on
    unknown modes — the server maps that to an ERR reply).  [degraded]
    is the daemon-level overload probe: while it returns [true], a
    [Block] backpressure policy is escalated to [Sample] instead of
    stalling the receiver.  [on_queue_delta] tracks this tenant's
    contribution to the global queued-batch gauge; [on_enqueue] wakes
    the worker pool. *)

val id : t -> int
val name : t -> string
val mode : t -> string
val state : t -> state
val queued : t -> int
val escalations : t -> int
(** Pushes where overload escalated this tenant's [Block] to [Sample]. *)

(** {2 Receiver side (connection thread)} *)

val feed_data : t -> Bytes.t -> off:int -> len:int -> (unit, string) result
(** Decode one DATA payload (any byte split), in place in the caller's
    buffer, and enqueue full batches under the backpressure policy.
    Only a line cut by the frame boundary is copied; on [Ok] nothing of
    the buffer is retained, so the receiver may reuse it for the next
    frame.  [Error msg] means the bytes were malformed — the tenant has
    already been aborted as [Corrupt] and must not be fed again. *)

val finish_stream : t -> (unit, string) result
(** FIN: declare input complete, flush the decoder's tail.  [Error] on
    a truncated trace (aborted as [Corrupt]). *)

val abort : t -> abort_cause -> unit
(** Idempotent (first cause wins): record the cause, wake all waiters;
    remaining queued work is written off by {!finalize}. *)

val aborted : t -> bool

type result = {
  health : Ddp_core.Health.t;
  deps : (Ddp_core.Dep.t * int) list;  (** sorted by {!Ddp_core.Dep.compare} *)
  distinct : int;
  occurrences : int;
  events_received : int;  (** decoded from the wire *)
  events_processed : int;  (** fed into the engine *)
  counters : (string * int) list;  (** obs projection; superset check of [loss] *)
  elapsed : float;
}

val finalize : t -> result
(** Drain (or write off) the queue, take the busy flag, finish the
    engine session, merge its health with this tenant's own degradation
    ledger, snapshot telemetry.  Call exactly once, from the receiver;
    transitions to [Closed]. *)

val result_json : t -> result -> Ddp_obs.Json.t
(** The [ddpd-report/1] REPORT payload. *)

val status_json : t -> Ddp_obs.Json.t
(** Live per-tenant entry for [ddpd-status/1] (lock-free counter reads;
    monitoring accuracy). *)

(** {2 Pool side (shared worker domains)} *)

val pool_step : t -> worker:int -> bool
(** Try to process one queued batch: take the busy flag (give up and
    return [false] if another worker holds it), pop, replay into the
    engine behind an exception boundary — a raise (genuine or injected
    via the session's {!Ddp_core.Fault} crash budget) aborts {e this}
    tenant as [Crashed] and never escapes.  Returns [true] if a batch
    was consumed (even one that crashed). *)
