(** The serial profiler (paper Sec. III): Algorithm 1 applied inline to
    one run's instrumentation stream, over either the real or the perfect
    signature. *)

type t = {
  hooks : Ddp_minir.Event.hooks;  (** attach to an interpreter run *)
  deps : Dep_store.t;
  regions : Region.t;
  set_observer : Algo.dep_observer -> unit;
  store_bytes : unit -> int;
  release : unit -> unit;
      (** Hand the signatures back to {!Sig_store}'s pool (no-op for the
          perfect store); accounted bytes stay charged.  The session is
          finished: its hooks raise from then on. *)
  fold_obs : Ddp_obs.Obs.t -> unit;
      (** Fold end-of-run store statistics (signature occupancy,
          overwrite counts, bytes) into telemetry domain 0; no-op for
          the perfect store and on a disabled hub. *)
}

val create_signature : ?account:Ddp_util.Mem_account.t * string -> Config.t -> t
val create_perfect : ?account:Ddp_util.Mem_account.t * string -> Config.t -> t

val consumed_classes : Ddp_minir.Event.Class.t list
(** The classes a serial profiler subscribes to:
    [[Memory; Region; Alloc]]. *)

val region_handler : Region.t -> Ddp_minir.Event.region_handler
(** The standard region-class wiring into a {!Region} tracker. *)

val make_handler :
  (module Algo.S with type t = 'a) ->
  'a ->
  Region.t ->
  lifetime:bool ->
  section_level:bool ->
  Ddp_minir.Handler.t
(** Build the standard serial wiring (payload packing, region tracking,
    optional lifetime frees and set-based attribution) around any
    Algorithm-1 instance, as a per-class handler bundle — the building
    block for engine adapters over alternative stores (see {!Engine}). *)

val make_hooks :
  (module Algo.S with type t = 'a) ->
  'a ->
  Region.t ->
  lifetime:bool ->
  section_level:bool ->
  Ddp_minir.Event.hooks
(** [make_handler] fused into the flat hot-path record. *)

val profile :
  ?account:Ddp_util.Mem_account.t * string ->
  ?config:Config.t ->
  ?perfect:bool ->
  ?sched_seed:int ->
  ?input_seed:int ->
  ?symtab:Ddp_minir.Symtab.t ->
  Ddp_minir.Ast.program ->
  t * Ddp_minir.Interp.stats
(** Profile one program end to end. *)
