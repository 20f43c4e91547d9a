(* ddpd-wire/1 framing: length-prefixed frames over a Unix-domain
   stream socket.  Deliberately boring — all robustness decisions
   (caps, typed errors, EOF-vs-cut distinction) live here so the
   session layer above never sees a raw byte. *)

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

let frame_char = function
  | Hello -> 'H'
  | Data -> 'D'
  | Fin -> 'F'
  | Status_req -> 'S'
  | Admit -> 'A'
  | Busy -> 'B'
  | Err -> 'E'
  | Report -> 'R'
  | Status_reply -> 'T'

let frame_of_char = function
  | 'H' -> Some Hello
  | 'D' -> Some Data
  | 'F' -> Some Fin
  | 'S' -> Some Status_req
  | 'A' -> Some Admit
  | 'B' -> Some Busy
  | 'E' -> Some Err
  | 'R' -> Some Report
  | 'T' -> Some Status_reply
  | _ -> None

let frame_name = function
  | Hello -> "HELLO"
  | Data -> "DATA"
  | Fin -> "FIN"
  | Status_req -> "STATUS"
  | Admit -> "ADMIT"
  | Busy -> "BUSY"
  | Err -> "ERR"
  | Report -> "REPORT"
  | Status_reply -> "STATUS-REPLY"

exception Protocol_error of string
exception Timeout

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

(* Traces are streamed as many small DATA frames, so a single frame
   never needs to be huge; the cap turns a corrupt length prefix into a
   typed error instead of a giant allocation. *)
let max_payload = 8 * 1024 * 1024

(* A frame's header: <len:4 BE><type:1>. *)
let header_len = 5

let rec write_all fd b off len =
  if len > 0 then begin
    let w = Unix.write fd b off len in
    write_all fd b (off + w) (len - w)
  end

(* The slice writer: the payload already sits at [header_len, header_len
   + len) of [b]; the header goes in front of it and the frame leaves in
   one write.  A sender that streams many frames fills one reused
   buffer instead of building a string per frame. *)
let write_frame_from fd ty b ~len =
  if len > max_payload then invalid_arg "Wire.write_frame: payload too large";
  if len < 0 || header_len + len > Bytes.length b then invalid_arg "Wire.write_frame_from: bad length";
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.set b 4 (frame_char ty);
  write_all fd b 0 (header_len + len)

let write_frame fd ty payload =
  let n = String.length payload in
  if n > max_payload then invalid_arg "Wire.write_frame: payload too large";
  let b = Bytes.create (header_len + n) in
  Bytes.blit_string payload 0 b header_len n;
  write_frame_from fd ty b ~len:n

(* Fill [b.[0, n)], waiting on [deadline] (absolute wall-clock) before
   every chunk.  [allow_eof] permits clean EOF (returns [false]) only
   before the first byte — EOF mid-frame is a cut, not a close. *)
let read_into ?deadline ~allow_eof fd b n =
  let rec pull off =
    if off >= n then true
    else begin
      (match deadline with
      | None -> ()
      | Some d ->
        let rec wait () =
          let left = d -. Unix.gettimeofday () in
          if left <= 0.0 then raise Timeout;
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> raise Timeout
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        in
        wait ());
      match Unix.read fd b off (n - off) with
      | 0 -> if off = 0 && allow_eof then false else fail "connection cut mid-frame"
      | r -> pull (off + r)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pull off
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        if off = 0 && allow_eof then false else fail "connection reset mid-frame"
    end
  in
  pull 0

(* The header of the next frame: its type and payload length. *)
let read_header ?deadline fd hdr =
  if not (read_into ?deadline ~allow_eof:true fd hdr header_len) then None
  else begin
    let len =
      (Char.code (Bytes.get hdr 0) lsl 24)
      lor (Char.code (Bytes.get hdr 1) lsl 16)
      lor (Char.code (Bytes.get hdr 2) lsl 8)
      lor Char.code (Bytes.get hdr 3)
    in
    if len > max_payload then fail "frame length %d exceeds cap %d" len max_payload;
    match frame_of_char (Bytes.get hdr 4) with
    | Some ty -> Some (ty, len)
    | None -> fail "unknown frame type %C" (Bytes.get hdr 4)
  end

let read_frame ?deadline fd =
  match read_header ?deadline fd (Bytes.create header_len) with
  | None -> None
  | Some (ty, 0) -> Some (ty, "")
  | Some (ty, len) ->
    let b = Bytes.create len in
    ignore (read_into ?deadline ~allow_eof:false fd b len : bool);
    Some (ty, Bytes.unsafe_to_string b)

(* A receiver's reused frame buffer: grows to the largest payload seen
   (at most [max_payload]) and is overwritten by every read. *)
type reader = { hdr : Bytes.t; mutable buf : Bytes.t }

let reader () = { hdr = Bytes.create header_len; buf = Bytes.empty }
let payload r = r.buf

let read_frame_into ?deadline r fd =
  let frame = read_header ?deadline fd r.hdr in
  (match frame with
  | Some (_, len) ->
    if len > Bytes.length r.buf then
      r.buf <- Bytes.create (max len (min max_payload (2 * Bytes.length r.buf)));
    ignore (read_into ?deadline ~allow_eof:false fd r.buf len : bool)
  | None -> ());
  frame

(* -- key-value payloads ---------------------------------------------------- *)

let kv_encode kvs =
  let b = Buffer.create 64 in
  List.iter
    (fun (k, v) ->
      if String.contains k '=' || String.contains k '\n' || String.contains v '\n' then
        invalid_arg "Wire.kv_encode: key/value with '=' or newline";
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v;
      Buffer.add_char b '\n')
    kvs;
  Buffer.contents b

let kv_decode s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let kvs =
    List.map
      (fun line ->
        match String.index_opt line '=' with
        | None -> fail "bad key-value line %S" line
        | Some i ->
          (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)))
      lines
  in
  List.iteri
    (fun i (k, _) ->
      List.iteri (fun j (k', _) -> if i < j && k = k' then fail "repeated key %S" k) kvs)
    kvs;
  kvs

let kv_get kvs k = List.assoc_opt k kvs
