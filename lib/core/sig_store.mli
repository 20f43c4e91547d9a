(** The signature: a fixed-size hashed slot array holding the packed
    payload and timestamp of the last access that mapped to each slot
    (paper Sec. III-B).  Collisions overwrite — the bounded-memory
    approximation quantified by Table I. *)

type t

val create : ?account:Ddp_util.Mem_account.t * string -> slots:int -> unit -> t
(** A cleared signature of [slots] slots, charged to [account].  Reuses
    the arrays of a recycled store of the same size when the process
    pool holds one, and allocates them otherwise. *)

val recycle : t -> unit
(** Hand the store's arrays back to the process pool (cleared here, on
    the recycling side) for a later {!create} to reuse.  The store is
    detached: every later {!probe}, {!set} or {!remove} on it raises
    [Invalid_argument] instead of touching a signature another session
    may now own.  Accounting is untouched: the bytes stay charged to the
    account given at {!create}.  Idempotent. *)

(** The pool's state, for tests. *)
module For_tests : sig
  val pool_cap : int
  (** Most stores the pool retains: it keeps the most recently recycled
      ones and leaves older arrays to the collector. *)

  val pooled : slots:int -> int
  (** Stores of [slots] slots waiting in the pool. *)
end

val size : t -> int
val occupied : t -> int

val overwrites : t -> int
(** Sets that landed on an already-occupied slot: the same-address
    update / hash-collision rate the telemetry layer reports (a cheap
    proxy for Eq. (2)'s collision behaviour). *)

val index : t -> int -> int
(** The slot an address hashes to. *)

val probe : t -> addr:int -> int
(** Payload of the slot for [addr]; 0 when empty (membership check). *)

val probe_time : t -> addr:int -> int

val set : t -> addr:int -> payload:int -> time:int -> unit
(** Insertion: overwrites on collision. *)

val remove : t -> addr:int -> unit
(** Variable-lifetime analysis: clear the slot of a freed address (may
    evict a colliding live entry — causes false negatives only). *)

val clear : t -> unit

val slot_of_index : t -> int -> int * int
(** Raw [(payload, time)] of a slot, for redistribution migration. *)

val set_index : t -> int -> payload:int -> time:int -> unit

val bytes : t -> int
val bytes_per_slot : int
