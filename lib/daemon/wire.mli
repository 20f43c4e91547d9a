(** [ddpd-wire/1]: the daemon's framing layer.

    A frame is [<len:4 BE><type:1><payload:len bytes>]; [len] covers the
    payload only and is capped ({!max_payload}) so a garbage length
    prefix is a typed {!Protocol_error}, never an allocation bomb.

    Conversation grammar (client to the left of the arrow):
    {v
      HELLO kv      ->  ADMIT kv | BUSY kv | ERR text
      DATA bytes*   ->  (trace v2 bytes, split at arbitrary boundaries)
      FIN           ->  REPORT json      (ddpd-report/1)
      STATUS        ->  STATUS_REPLY json (ddpd-status/1; instead of HELLO)
    v}

    Key-value payloads (HELLO/ADMIT/BUSY) are newline-separated
    [key=value] lines; values may not contain newlines. *)

type frame_type =
  | Hello
  | Data
  | Fin
  | Status_req
  | Admit
  | Busy
  | Err
  | Report
  | Status_reply

val frame_char : frame_type -> char
val frame_name : frame_type -> string

exception Protocol_error of string
(** Malformed framing: unknown type byte, oversized length, or a
    connection cut mid-frame. *)

exception Timeout
(** {!read_frame} gave up waiting (its [deadline] passed). *)

val max_payload : int

val header_len : int
(** Bytes of frame header in front of every payload (5). *)

val write_frame : Unix.file_descr -> frame_type -> string -> unit
(** Raises [Unix.Unix_error] if the peer is gone (caller handles). *)

val write_frame_from : Unix.file_descr -> frame_type -> Bytes.t -> len:int -> unit
(** The slice writer: send the [len]-byte payload that the caller has
    already placed at [header_len, header_len + len) of the buffer.
    The header is written into the buffer's first {!header_len} bytes
    and the frame leaves in one write, so a sender streaming many
    frames reuses one buffer and copies each payload byte once. *)

val read_frame : ?deadline:float -> Unix.file_descr -> (frame_type * string) option
(** Blocking read of one whole frame; [None] on clean EOF at a frame
    boundary.  [deadline] is absolute ({!Unix.gettimeofday} scale);
    crossing it raises {!Timeout}.  EOF inside a frame raises
    {!Protocol_error}. *)

type reader
(** A receiver's reused payload buffer. *)

val reader : unit -> reader

val read_frame_into : ?deadline:float -> reader -> Unix.file_descr -> (frame_type * int) option
(** {!read_frame} without a string per frame: the payload lands in
    bytes [0, len) of [payload reader], valid until the next read with
    the same reader.  Same errors and EOF behaviour as {!read_frame}. *)

val payload : reader -> Bytes.t

val kv_encode : (string * string) list -> string

val kv_decode : string -> (string * string) list
(** Raises {!Protocol_error} on a line without [=] or a key repeated. *)

val kv_get : (string * string) list -> string -> string option
