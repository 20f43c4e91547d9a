(* Trace files: record one run's instrumentation stream to disk and
   replay it later into any profiler or analysis.

   This supports the paper's reuse story operationally — the whole point
   of a generic profiler is that one collection serves many analyses, and
   a persisted trace lets those analyses run without re-executing the
   (slow) instrumented program.

   Format (version 2): a line-oriented text file.
     ddp-trace 2
     %class <name> <tag>...   (one per event class, self-describing)
     <event lines>
     %var <id> <name>         (symbol table, written after the events)
     %file <id> <name>
     %end                     (seal: absent means truncated)
   Event lines are single characters plus integer fields; locations are
   stored packed (they are plain ints).  The [%class] header maps each
   event class of the algebra to the tags it owns, so a reader can skip
   events of a declared-but-unknown class instead of dying on them —
   adding a class is a header change, not a format break.  Variable and
   file names may contain no newlines; names are written escaped with
   String.escaped.

   Version 1 (no [%class] header, no Sync events) is still read
   bit-for-bit by [load]; [save ~version:`V1] writes it for tests.

   Parsing is built on {!Stream}, an incremental push decoder: callers
   feed byte chunks split at arbitrary boundaries (the daemon receives
   traces as network frames) and pull decoded events; input ending
   mid-line yields [Need_more], never a parse error.  [load] is the
   whole-file specialization. *)

let magic_v1 = "ddp-trace 1"
let magic = "ddp-trace 2"

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* -- the class/tag vocabulary --------------------------------------------- *)

(* Tags owned by each class, in event-declaration order.  This is the
   v2 header; v1 files implicitly use the same map minus [Sync]. *)
let class_tags = function
  | Event.Class.Memory -> [ 'R'; 'W' ]
  | Event.Class.Region -> [ 'B'; 'I'; 'E' ]
  | Event.Class.Frame -> [ 'C'; 'T'; 'X' ]
  | Event.Class.Alloc -> [ 'A'; 'F' ]
  | Event.Class.Sync -> [ 'Y' ]

let sync_kind_int = function
  | Event.Task_spawn -> 0
  | Event.Task_join -> 1
  | Event.Lock_acquire -> 2
  | Event.Lock_release -> 3

let sync_kind_of_int = function
  | 0 -> Some Event.Task_spawn
  | 1 -> Some Event.Task_join
  | 2 -> Some Event.Lock_acquire
  | 3 -> Some Event.Lock_release
  | _ -> None

(* -- writing --------------------------------------------------------------- *)

(* One hand-written encoder serves every writer ([to_buffer], the
   recorders, [save]).  An event line — a tag, at most six decimal ints,
   a newline — is formatted into the writer's scratch line with a digit
   loop, and the finished line goes to the sink in one call: no format
   interpretation and no intermediate string per event.  The sink is a
   [Buffer] (in-memory encoding: the daemon client frames it for the
   wire) or an [out_channel] (recording to disk). *)

(* tag + six fields of at most 21 bytes (" -4611686018427387904") + '\n' *)
let line_cap = 1 + (6 * 21) + 1

type writer = { line : Bytes.t; out : Bytes.t -> int -> int -> unit }

let buffer_writer buf = { line = Bytes.create line_cap; out = Buffer.add_subbytes buf }
let channel_writer oc = { line = Bytes.create line_cap; out = output oc }
let write_string w s = w.out (Bytes.unsafe_of_string s) 0 (String.length s)

(* Decimal digits of [m <= 0]. *)
let rec count_digits m =
  if m > -10 then 1
  else if m > -100 then 2
  else if m > -1000 then 3
  else if m > -10000 then 4
  else 4 + count_digits (m / 10000)

let rec fill_digits b m i =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then fill_digits b (m / 10) (i - 1)

(* Write [' '] and [n] in decimal at [pos]; returns the next position.
   Digits come from the non-positive magnitude, since [-min_int]
   overflows.  Same bytes as [Printf]'s ["%d"]. *)
let put_field b pos n =
  Bytes.unsafe_set b pos ' ';
  let pos = pos + 1 in
  if n >= 0 && n < 10 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (48 + n));
    pos + 1
  end
  else begin
    let pos =
      if n < 0 then begin
        Bytes.unsafe_set b pos '-';
        pos + 1
      end
      else pos
    in
    let m = if n < 0 then n else -n in
    let last = pos + count_digits m - 1 in
    fill_digits b m last;
    last + 1
  end

let[@inline] start_line w tag =
  Bytes.unsafe_set w.line 0 tag;
  1

let[@inline] end_line w pos =
  Bytes.unsafe_set w.line pos '\n';
  w.out w.line 0 (pos + 1)

let line1 w tag a = end_line w (put_field w.line (start_line w tag) a)

let line3 w tag a b c =
  let l = w.line in
  end_line w (put_field l (put_field l (put_field l (start_line w tag) a) b) c)

let line4 w tag a b c d =
  let l = w.line in
  end_line w (put_field l (put_field l (put_field l (put_field l (start_line w tag) a) b) c) d)

let line5 w tag a b c d e =
  let l = w.line in
  end_line w
    (put_field l (put_field l (put_field l (put_field l (put_field l (start_line w tag) a) b) c) d) e)

let line6 w tag a b c d e f =
  let l = w.line in
  end_line w
    (put_field l
       (put_field l (put_field l (put_field l (put_field l (put_field l (start_line w tag) a) b) c) d) e)
       f)

let write_class_header w =
  List.iter
    (fun c ->
      write_string w ("%class " ^ Event.Class.name c);
      List.iter (fun tag -> write_string w (" " ^ String.make 1 tag)) (class_tags c);
      write_string w "\n")
    Event.Class.all

let bool_int b = if b then 1 else 0

(* Streaming hooks: events go straight to the sink, O(1) memory.
   Built class-by-class so the writer is itself a handler composition. *)
let emitter_handler w =
  Handler.make
    ~memory:
      {
        Event.on_read =
          (fun ~addr ~loc ~var ~thread ~time ~locked ->
            line6 w 'R' addr loc var thread time (bool_int locked));
        on_write =
          (fun ~addr ~loc ~var ~thread ~time ~locked ->
            line6 w 'W' addr loc var thread time (bool_int locked));
      }
    ~region:
      {
        Event.on_region_enter =
          (fun ~loc ~kind:Event.Loop ~thread ~time -> line3 w 'B' loc thread time);
        on_region_iter = (fun ~loc ~thread ~time -> line3 w 'I' loc thread time);
        on_region_exit =
          (fun ~loc ~end_loc ~kind:Event.Loop ~iterations ~thread ~time ->
            line5 w 'E' loc end_loc iterations thread time);
      }
    ~frame:
      {
        Event.on_call = (fun ~loc ~func ~thread ~time -> line4 w 'C' loc func thread time);
        on_return = (fun ~func ~thread ~time -> line3 w 'T' func thread time);
        on_thread_end = (fun ~thread -> line1 w 'X' thread);
      }
    ~alloc:
      {
        Event.on_alloc = (fun ~base ~len ~var -> line3 w 'A' base len var);
        on_free = (fun ~base ~len ~var -> line3 w 'F' base len var);
      }
    ~sync:
      {
        Event.on_sync =
          (fun ~kind ~obj ~thread ~time -> line4 w 'Y' (sync_kind_int kind) obj thread time);
      }
    ()

let recorder_handler oc = emitter_handler (channel_writer oc)
let recorder oc = Handler.hooks (recorder_handler oc)

let write_symtab_to w (symtab : Symtab.t) =
  let entry kind id name =
    write_string w (kind ^ string_of_int id ^ " " ^ String.escaped name ^ "\n")
  in
  Ddp_util.Intern.iter symtab.Symtab.vars (entry "%var ");
  Ddp_util.Intern.iter symtab.Symtab.files (entry "%file ")

let write_symtab oc symtab = write_symtab_to (channel_writer oc) symtab

(* v2 files end with a sentinel, so truncation anywhere — even a cut
   that happens to leave a parseable final line — is always detected. *)
let end_sentinel = "%end"

let write_v2_header w =
  write_string w magic;
  write_string w "\n";
  write_class_header w

let write_seal w =
  write_string w end_sentinel;
  write_string w "\n"

(* Encode a complete v2 trace into a buffer: what [save] writes to disk,
   as bytes in memory. *)
let to_buffer buf events symtab =
  let w = buffer_writer buf in
  write_v2_header w;
  Event.replay (Handler.hooks (emitter_handler w)) events;
  write_symtab_to w symtab;
  write_seal w

(* Streaming recording handle: lets a caller tee an arbitrary event
   stream (live run or replay) into a trace file while it also feeds a
   profiler, then seal the file with the run's symbol table.

   Crash-safe via {!Ddp_util.Tmp_file}: events stream into
   [path ^ ".tmp"], and only a successful [finish_recording] renames it
   into place (atomic on POSIX).  An interrupted or aborted recording
   therefore never leaves a truncated file at [path] for a later [load]
   to reject, and a CLI that calls
   [Ddp_util.Tmp_file.install_signal_cleanup] doesn't even leave the
   [.tmp] behind on SIGINT/SIGTERM. *)
type recording = { tf : Ddp_util.Tmp_file.t; w : writer; rec_hooks : Event.hooks; mutable closed : bool }

let start_recording ~path =
  let tf = Ddp_util.Tmp_file.create ~path in
  let w = channel_writer (Ddp_util.Tmp_file.oc tf) in
  write_v2_header w;
  { tf; w; rec_hooks = Handler.hooks (emitter_handler w); closed = false }

let recording_hooks r = r.rec_hooks

let abort_recording r =
  if not r.closed then begin
    r.closed <- true;
    Ddp_util.Tmp_file.abort r.tf
  end

let finish_recording r symtab =
  if r.closed then invalid_arg "Trace_file.finish_recording: already closed";
  write_symtab_to r.w symtab;
  write_seal r.w;
  r.closed <- true;
  Ddp_util.Tmp_file.commit r.tf

(* Record a program run to [path]; returns the run's stats. *)
let record ?sched_seed ?input_seed ~path prog =
  let r = start_recording ~path in
  let symtab = Symtab.create () in
  (try
     let (_ : Interp.stats) =
       Interp.run ~hooks:r.rec_hooks ?sched_seed ?input_seed ~symtab prog
     in
     ()
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     abort_recording r;
     Printexc.raise_with_backtrace e bt);
  finish_recording r symtab

(* Write an explicit event list (plus symtab) to [path].  [`V1] emits
   the legacy header-less format for compat testing; it cannot express
   [Sync] events and rejects them. *)
let save ?(version = `V2) ~path events symtab =
  let oc = open_out path in
  let w = channel_writer oc in
  (try
     (match version with
     | `V2 -> write_v2_header w
     | `V1 ->
       List.iter
         (fun e ->
           match e with
           | Event.Sync _ ->
             invalid_arg "Trace_file.save: version 1 cannot express Sync events"
           | _ -> ())
         events;
       write_string w magic_v1;
       write_string w "\n");
     Event.replay (Handler.hooks (emitter_handler w)) events;
     write_symtab_to w symtab;
     match version with `V2 -> write_seal w | `V1 -> ()
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

(* -- loading --------------------------------------------------------------- *)

(* Event-line fields are scanned in place.  A token of at most 18
   decimal digits (optionally after a '-') cannot overflow and is
   converted by the digit loop; any other token ([+5], [0x1f], [1_000],
   19+ digits, garbage) goes to [int_of_string_opt], so the decoder
   accepts exactly the tokens OCaml's own integer syntax accepts. *)

let max_fast_digits = 18

let rec index_newline b i lim =
  if i >= lim then -1 else if Bytes.unsafe_get b i = '\n' then i else index_newline b (i + 1) lim

(* Incremental push decoder.  Bytes go in via [feed] / [feed_slice] in
   chunks cut at arbitrary boundaries; decoded events come out via
   [next].  Lines are decoded in place in the chunk they arrive in; only
   a line that straddles two chunks is copied, into [part].  A partial
   line at the end of the fed input is held back (not an error) until
   either more bytes complete it or [eof] declares the input finished —
   at which point the held-back tail is parsed exactly as [input_line]
   would have delivered it (a final line needs no trailing newline).
   Symbol-table and class-header lines update internal state instead of
   producing events; the accumulated {!symtab} is valid once [next]
   returns [Done]. *)
module Stream = struct
  type step = Event of Event.t | Need_more | Done

  type t = {
    mutable cur : Bytes.t;  (* chunk being scanned (borrowed, never written) *)
    mutable pos : int;  (* cursor into [cur] *)
    mutable lim : int;  (* end of [cur]'s fed slice *)
    chunks : (Bytes.t * int * int) Queue.t;  (* fed, not yet scanned *)
    mutable part : Bytes.t;  (* line fragment spanning chunk boundaries *)
    mutable part_len : int;
    (* the line [take_line] delivered: bytes [ls, le) of [lb] *)
    mutable lb : Bytes.t;
    mutable ls : int;
    mutable le : int;
    fields : int array;  (* the delivered line's first six fields *)
    mutable nfields : int;  (* its field count, from [scan_fields] *)
    mutable slow : bool;  (* it has a field the digit loop cannot convert *)
    symtab : Symtab.t;
    mutable version : int;
    mutable saw_magic : bool;
    mutable sealed : bool;
    mutable finished : bool;
    mutable at_eof : bool;
    mutable skip_tags : char list;
    mutable pending_vars : (int * string) list;
    mutable pending_files : (int * string) list;
  }

  let create () =
    {
      cur = Bytes.empty;
      pos = 0;
      lim = 0;
      chunks = Queue.create ();
      part = Bytes.create 256;
      part_len = 0;
      lb = Bytes.empty;
      ls = 0;
      le = 0;
      fields = Array.make 6 0;
      nfields = 0;
      slow = false;
      symtab = Symtab.create ();
      version = 1;
      saw_magic = false;
      sealed = false;
      finished = false;
      at_eof = false;
      skip_tags = [];
      pending_vars = [];
      pending_files = [];
    }

  let feed_slice t b ~off ~len =
    if t.at_eof then invalid_arg "Trace_file.Stream.feed: after eof";
    if off < 0 || len < 0 || off > Bytes.length b - len then
      invalid_arg "Trace_file.Stream.feed_slice: bad slice";
    if len > 0 then
      if t.pos >= t.lim && Queue.is_empty t.chunks then begin
        t.cur <- b;
        t.pos <- off;
        t.lim <- off + len
      end
      else Queue.add (b, off, len) t.chunks

  let feed t s = feed_slice t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
  let eof t = t.at_eof <- true

  let append_part t b off len =
    if t.part_len + len > Bytes.length t.part then begin
      let bigger = Bytes.create (max (t.part_len + len) (2 * Bytes.length t.part)) in
      Bytes.blit t.part 0 bigger 0 t.part_len;
      t.part <- bigger
    end;
    Bytes.blit b off t.part t.part_len len;
    t.part_len <- t.part_len + len

  (* One pass over a line's fields, from [i] (just after its first
     byte, the tag of an event line) up to its '\n' or [lim], whichever
     comes first; returns where it stopped, with the field count in
     [nfields].  [ts] is the start of the current field (-1 between
     fields) and [acc] its digit-loop value, or -1 once the loop met a
     non-digit.  The first six fields land in [fields].  A field the loop
     cannot take (not plain decimal, or too long to be sure it does not
     overflow) only sets [slow]: [decode_line] then converts the line
     again with [exact_fields].  Nothing here accepts or rejects: for a
     line that is not an event line the fields are simply unused. *)
  let rec scan_fields t b i lim n ts acc =
    if i >= lim then end_fields t b i n ts acc
    else
      let c = Bytes.unsafe_get b i in
      if c >= '0' && c <= '9' then
        if ts < 0 then scan_fields t b (i + 1) lim n i (Char.code c - 48)
        else if acc >= 0 then scan_fields t b (i + 1) lim n ts ((acc * 10) + (Char.code c - 48))
        else scan_fields t b (i + 1) lim n ts acc
      else if c = ' ' then
        if ts < 0 then scan_fields t b (i + 1) lim n ts acc
        else begin
          quick_field t b ts i n acc;
          scan_fields t b (i + 1) lim (n + 1) (-1) 0
        end
      else if c = '\n' then end_fields t b i n ts acc
      else if ts < 0 then scan_fields t b (i + 1) lim n i (if c = '-' then 0 else -1)
      else scan_fields t b (i + 1) lim n ts (-1)

  and end_fields t b i n ts acc =
    if ts < 0 then t.nfields <- n
    else begin
      quick_field t b ts i n acc;
      t.nfields <- n + 1
    end;
    i

  and quick_field t b ts te n acc =
    let neg = Bytes.unsafe_get b ts = '-' in
    let digits = if neg then te - ts - 1 else te - ts in
    if acc >= 0 && digits > 0 && digits <= max_fast_digits then begin
      if n < 6 then Array.unsafe_set t.fields n (if neg then -acc else acc)
    end
    else t.slow <- true

  let scan_line t =
    t.slow <- false;
    scan_fields t t.lb (t.ls + 1) t.le 0 (-1) 0

  let deliver_part t =
    t.lb <- t.part;
    t.ls <- 0;
    t.le <- t.part_len;
    t.part_len <- 0;
    ignore (scan_line t : int)

  (* Find the next complete line (consuming its '\n') and set [lb, ls,
     le] to it, or — once [eof] has been declared — the unterminated
     tail, exactly as [input_line] delivers a final line with no
     trailing newline; its fields are scanned ([scan_fields]) on the
     way.  A line that starts in the current chunk is found and scanned
     in one pass, in place; only a line cut by the chunk's end is
     copied into [part] and scanned once complete.  [false] when the
     input is exhausted; by then every fed chunk has been released. *)
  let rec take_line t =
    if t.pos >= t.lim then
      if Queue.is_empty t.chunks then begin
        t.cur <- Bytes.empty;
        t.pos <- 0;
        t.lim <- 0;
        if t.at_eof && t.part_len > 0 then begin
          deliver_part t;
          true
        end
        else false
      end
      else begin
        let b, off, len = Queue.pop t.chunks in
        t.cur <- b;
        t.pos <- off;
        t.lim <- off + len;
        take_line t
      end
    else if t.part_len > 0 then begin
      let i = index_newline t.cur t.pos t.lim in
      if i < 0 then begin
        append_part t t.cur t.pos (t.lim - t.pos);
        t.pos <- t.lim;
        take_line t
      end
      else begin
        append_part t t.cur t.pos (i - t.pos);
        deliver_part t;
        t.pos <- i + 1;
        true
      end
    end
    else begin
      t.lb <- t.cur;
      t.ls <- t.pos;
      t.le <- t.lim;
      (* [scan_line] starts after the first byte: an empty line ends at it *)
      let stop = if Bytes.unsafe_get t.cur t.pos = '\n' then t.pos else scan_line t in
      if stop >= t.lim then begin
        append_part t t.cur t.pos (t.lim - t.pos);
        t.pos <- t.lim;
        take_line t
      end
      else begin
        t.le <- stop;
        t.pos <- stop + 1;
        true
      end
    end

  let line t = Bytes.sub_string t.lb t.ls (t.le - t.ls)

  let line_is t s =
    let n = String.length s in
    t.le - t.ls = n
    &&
    let rec eq k = k >= n || (Bytes.unsafe_get t.lb (t.ls + k) = String.unsafe_get s k && eq (k + 1)) in
    eq 0

  let parse_class_decl t line rest =
    match String.split_on_char ' ' rest |> List.filter (fun s -> s <> "") with
    | [] -> fail "bad class line %S" line
    | name :: tags ->
      let tags =
        List.map
          (fun s -> if String.length s = 1 then s.[0] else fail "bad class tag %S in %S" s line)
          tags
      in
      (match Event.Class.of_name name with
      | Some c ->
        (* a known class must own exactly the tags we expect, or the
           writer speaks a different dialect of "version 2" *)
        if tags <> class_tags c then fail "class %S declares unexpected tags in %S" name line
      | None -> t.skip_tags <- tags @ t.skip_tags)

  (* [%class], [%var] and [%file] lines: a handful per trace. *)
  let parse_directive t line =
    match String.index_opt line ' ' with
    | None -> fail "bad symtab line %S" line
    | Some sp1 -> (
      let kind = String.sub line 1 (sp1 - 1) in
      let rest = String.sub line (sp1 + 1) (String.length line - sp1 - 1) in
      if kind = "class" then
        if t.version >= 2 then parse_class_decl t line rest
        else fail "class header in a version-1 trace: %S" line
      else
        match String.index_opt rest ' ' with
        | None -> fail "bad symtab line %S" line
        | Some sp2 ->
          let id =
            match int_of_string_opt (String.sub rest 0 sp2) with
            | Some id -> id
            | None -> fail "bad symtab id in line %S" line
          in
          let name =
            let raw = String.sub rest (sp2 + 1) (String.length rest - sp2 - 1) in
            try Scanf.unescaped raw
            with Scanf.Scan_failure _ | Failure _ | End_of_file ->
              fail "bad escaped name %S in line %S" raw line
          in
          if kind = "var" then t.pending_vars <- (id, name) :: t.pending_vars
          else if kind = "file" then t.pending_files <- (id, name) :: t.pending_files
          else fail "unknown symtab kind %S" kind)

  let rec token_end b i e = if i < e && Bytes.unsafe_get b i <> ' ' then token_end b (i + 1) e else i

  (* The fields of the delivered line [lb, ls, le) after the tag, every
     one through [int_of_string_opt]: the slow path, for a line with a
     field the digit loop could not take. *)
  let rec exact_fields t i n =
    if i >= t.le then n
    else if Bytes.unsafe_get t.lb i = ' ' then exact_fields t (i + 1) n
    else begin
      let j = token_end t.lb i t.le in
      let tok = Bytes.sub_string t.lb i (j - i) in
      match int_of_string_opt tok with
      | Some v ->
        if n < 6 then t.fields.(n) <- v;
        exact_fields t j (n + 1)
      | None -> fail "bad integer %S in line %S" tok (line t)
    end

  let event_of t tag n =
    let f = t.fields in
    match tag with
    | 'R' when n = 6 ->
      Event
        (Event.Read
           { addr = f.(0); loc = f.(1); var = f.(2); thread = f.(3); time = f.(4); locked = f.(5) <> 0 })
    | 'W' when n = 6 ->
      Event
        (Event.Write
           { addr = f.(0); loc = f.(1); var = f.(2); thread = f.(3); time = f.(4); locked = f.(5) <> 0 })
    | 'B' when n = 3 -> Event (Event.Region_enter { loc = f.(0); thread = f.(1); time = f.(2) })
    | 'I' when n = 3 -> Event (Event.Region_iter { loc = f.(0); thread = f.(1); time = f.(2) })
    | 'E' when n = 5 ->
      Event
        (Event.Region_exit
           { loc = f.(0); end_loc = f.(1); iterations = f.(2); thread = f.(3); time = f.(4) })
    | 'A' when n = 3 -> Event (Event.Alloc { base = f.(0); len = f.(1); var = f.(2) })
    | 'F' when n = 3 -> Event (Event.Free { base = f.(0); len = f.(1); var = f.(2) })
    | 'C' when n = 4 -> Event (Event.Call { loc = f.(0); func = f.(1); thread = f.(2); time = f.(3) })
    | 'T' when n = 3 -> Event (Event.Return { func = f.(0); thread = f.(1); time = f.(2) })
    | 'X' when n = 1 -> Event (Event.Thread_end { thread = f.(0) })
    | 'Y' when n = 4 && t.version >= 2 -> (
      match sync_kind_of_int f.(0) with
      | Some kind -> Event (Event.Sync { kind; obj = f.(1); thread = f.(2); time = f.(3) })
      | None -> fail "unknown sync kind in line %S" (line t))
    | _ ->
      if List.mem tag t.skip_tags then Need_more (* declared by an unknown class: skip *)
      else fail "malformed event line %S" (line t)

  (* Decode the line [take_line] delivered, whose fields it has
     scanned: [Event] for an event line, [Need_more] for a line that
     produces none. *)
  let decode_line t =
    if not t.saw_magic then begin
      if line_is t magic then t.version <- 2
      else if line_is t magic_v1 then t.version <- 1
      else fail "bad magic %S (expected %S)" (line t) magic;
      t.saw_magic <- true;
      Need_more
    end
    else if t.sealed then fail "content after %%end sentinel: %S" (line t)
    else if t.le = t.ls then Need_more
    else if line_is t end_sentinel then
      if t.version >= 2 then begin
        t.sealed <- true;
        Need_more
      end
      else fail "end sentinel in a version-1 trace"
    else if Bytes.unsafe_get t.lb t.ls = '%' then begin
      parse_directive t (line t);
      Need_more
    end
    else event_of t (Bytes.unsafe_get t.lb t.ls) (if t.slow then exact_fields t (t.ls + 1) 0 else t.nfields)

  (* Install the pending symbol table once the input is complete: names
     must land at the recorded ids, so insert in id order. *)
  let finalize t =
    if not t.saw_magic then fail "empty trace file";
    if t.version >= 2 && not t.sealed then fail "truncated trace: missing %%end sentinel";
    let insert intern pending =
      List.sort compare pending
      |> List.iteri (fun expected (id, name) ->
             if id <> expected then fail "non-dense symtab ids in trace";
             let actual = Ddp_util.Intern.intern intern name in
             if actual <> id then fail "symtab id mismatch for %S" name)
    in
    insert t.symtab.Symtab.vars t.pending_vars;
    insert t.symtab.Symtab.files t.pending_files;
    t.finished <- true

  let rec next t =
    if t.finished then Done
    else if take_line t then
      match decode_line t with Event _ as ev -> ev | Need_more | Done -> next t
    else if not t.at_eof then Need_more
    else begin
      finalize t;
      Done
    end

  let symtab t = t.symtab
  let is_sealed t = t.sealed
end

let load ~path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let s = Stream.create () in
  Stream.feed s contents;
  Stream.eof s;
  let events = ref [] in
  let rec drain () =
    match Stream.next s with
    | Stream.Event e ->
      events := e :: !events;
      drain ()
    | Stream.Done -> ()
    | Stream.Need_more -> assert false (* eof was declared *)
  in
  drain ();
  (List.rev !events, Stream.symtab s)
