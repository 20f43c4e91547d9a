(** Trace files: persist one run's instrumentation stream and replay it
    into any profiler or analysis — one collection, many analyses.

    Version 2 traces are self-describing: a [%class <name> <tag>...]
    header maps each event class of the algebra to the line tags it
    owns, so readers can skip events of declared-but-unknown classes.
    Version 1 traces (no header, no [Sync]) still load unchanged. *)

exception Parse_error of string

val class_tags : Event.Class.t -> char list
(** The line tags owned by each event class (the v2 header contents). *)

val recorder : out_channel -> Event.hooks
(** Streaming hooks that write each event to the channel (O(1) memory). *)

val recorder_handler : out_channel -> Handler.t
(** The same writer as a per-class handler bundle, for composition. *)

val write_symtab : out_channel -> Symtab.t -> unit

val to_buffer : Buffer.t -> Event.t list -> Symtab.t -> unit
(** Encode a complete v2 trace (header, events, symtab, [%end] seal)
    into a buffer — what {!save} writes to disk, as bytes in memory.
    The daemon client uses this to frame traces for the wire. *)

type recording
(** A trace file being written: tee {!recording_hooks} into any event
    stream, then seal with {!finish_recording}. *)

val start_recording : path:string -> recording
(** Opens [path ^ ".tmp"]; the trace appears at [path] only on a
    successful {!finish_recording} (atomic rename), so interrupted runs
    never leave truncated traces behind. *)

val recording_hooks : recording -> Event.hooks

val finish_recording : recording -> Symtab.t -> unit
(** Append the symbol table, close, and atomically rename into place. *)

val abort_recording : recording -> unit
(** Close and delete the temp file without publishing (error paths);
    idempotent. *)

val record : ?sched_seed:int -> ?input_seed:int -> path:string -> Ast.program -> unit
(** Run the program and record its full trace (with symbol table) to
    [path]. *)

val save : ?version:[ `V1 | `V2 ] -> path:string -> Event.t list -> Symtab.t -> unit
(** Write an explicit event list.  [`V1] (for compat tests) emits the
    legacy header-less format and rejects [Sync] events with
    [Invalid_argument]; default [`V2]. *)

val load : path:string -> Event.t list * Symtab.t
(** Parse a recorded trace, either version.  Raises {!Parse_error} on
    malformed input. *)

(** Incremental push decoder: feed byte chunks split at {e arbitrary}
    boundaries (network frames, partial reads) and pull decoded events.
    Input ending mid-line yields {!step.Need_more}, never an exception;
    {!Parse_error} is raised only for a line that is complete and
    malformed, or at {!eof} for a trace that is truncated as a whole
    (missing magic or [%end] seal).  [load] is the whole-file
    specialization of this decoder, with identical acceptance. *)
module Stream : sig
  type step =
    | Event of Event.t  (** one decoded event *)
    | Need_more  (** input exhausted mid-line: feed more bytes or declare {!eof} *)
    | Done  (** trace complete; {!symtab} is now valid *)

  type t

  val create : unit -> t

  val feed : t -> string -> unit
  (** Append a chunk of input.  Raises [Invalid_argument] after {!eof}. *)

  val feed_slice : t -> Bytes.t -> off:int -> len:int -> unit
  (** Append bytes [off, off + len) of a caller-owned buffer without
      copying them: lines are decoded in place, and only an unterminated
      tail is copied aside.  The decoder borrows the slice until {!next}
      returns [Need_more] or [Done]; the caller must not modify it
      before then (so a receiver can read every frame into one reused
      buffer, draining the decoder between frames).  Raises
      [Invalid_argument] after {!eof} or on a slice outside the buffer. *)

  val eof : t -> unit
  (** Declare the input complete: no more {!feed} calls.  A final line
      needs no trailing newline (matching [input_line]). *)

  val next : t -> step
  (** Decode and return the next event.  Raises {!Parse_error} on
      malformed input as described above. *)

  val symtab : t -> Symtab.t
  (** The accumulated symbol table; fully populated once {!next} has
      returned [Done]. *)

  val is_sealed : t -> bool
  (** Whether the [%end] sentinel has been decoded (v2 only) — lets a
      server distinguish "client went quiet mid-trace" from "trace
      complete, awaiting FIN". *)
end
