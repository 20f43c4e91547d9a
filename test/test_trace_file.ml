(* Tests for trace recording and replay. *)

module B = Ddp_minir.Builder
module TF = Ddp_minir.Trace_file

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("ddp_test_" ^ name)

let sample_prog () =
  B.program ~name:"rec"
    ~funcs:[ B.proc "inc" [ "k" ] [ B.store "a" (B.v "k") B.(idx "a" (v "k") +: i 1) ] ]
    [
      B.arr "a" (B.i 8);
      B.for_ "i" (B.i 0) (B.i 8) (fun iv -> [ B.store "a" iv iv ]);
      B.for_ "j" (B.i 0) (B.i 8) (fun jv -> [ B.call_proc "inc" [ jv ] ]);
      B.local "s" (B.idx "a" (B.i 3));
    ]

let test_roundtrip_events () =
  let path = tmp "roundtrip.trace" in
  TF.record ~path (sample_prog ());
  let live, _ = Ddp_minir.Interp.trace (sample_prog ()) in
  let loaded, _ = TF.load ~path in
  Alcotest.(check int) "same length" (List.length live) (List.length loaded);
  Alcotest.(check bool) "identical events" true (live = loaded);
  Sys.remove path

let test_roundtrip_symtab () =
  let path = tmp "symtab.trace" in
  TF.record ~path (sample_prog ());
  let _, symtab = TF.load ~path in
  Alcotest.(check bool) "var names recovered" true
    (Ddp_util.Intern.mem symtab.Ddp_minir.Symtab.vars "a"
    && Ddp_util.Intern.mem symtab.Ddp_minir.Symtab.vars "inc");
  Alcotest.(check string) "file name recovered" "rec"
    (Ddp_minir.Symtab.file_name symtab 1);
  Sys.remove path

let test_replay_into_profiler_matches_live () =
  let path = tmp "replay.trace" in
  TF.record ~path (sample_prog ());
  let events, _ = TF.load ~path in
  let live = Ddp_core.Profiler.profile ~mode:"perfect" (sample_prog ()) in
  let replayed = Ddp_core.Serial_profiler.create_perfect Ddp_core.Config.default in
  Ddp_minir.Event.replay replayed.Ddp_core.Serial_profiler.hooks events;
  Alcotest.(check bool) "same dependences from trace replay" true
    (Ddp_core.Dep_store.Key_set.equal
       (Ddp_core.Dep_store.key_set live.deps)
       (Ddp_core.Dep_store.key_set replayed.Ddp_core.Serial_profiler.deps));
  Sys.remove path

let test_load_errors () =
  let path = tmp "bad.trace" in
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "not a trace\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  write "ddp-trace 1\nZ 1 2 3\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad tag accepted");
  write "ddp-trace 1\nR 1 2\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "short line accepted");
  Sys.remove path

(* Error paths must surface as Parse_error — never as an uncaught
   Failure/Scanf crash from the guts of the parser. *)
let test_garbage_symtab () =
  let path = tmp "garbage_symtab.trace" in
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "ddp-trace 1\n%var notanint foo\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "non-integer symtab id accepted");
  write "ddp-trace 1\n%var 0 bad\\qescape\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "invalid escape sequence accepted");
  write "ddp-trace 1\n%var 5 foo\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "non-dense symtab ids accepted");
  Sys.remove path

(* Chop a recorded trace mid-line: loading must raise Parse_error, not
   return a silently short event list or crash. *)
let truncated_trace () =
  let path = tmp "truncated.trace" in
  TF.record ~path (sample_prog ());
  let full = In_channel.with_open_bin path In_channel.input_all in
  let cut = String.length full - (String.length full / 3) in
  (* land inside a line, not on a boundary *)
  let cut = if full.[cut] = '\n' then cut - 1 else cut in
  Out_channel.with_open_bin path (fun oc -> output_string oc (String.sub full 0 cut));
  path

let test_truncated_file () =
  let path = truncated_trace () in
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "truncated trace accepted");
  Sys.remove path

(* The same truncated file through the replay path of EVERY registered
   engine: the Parse_error must propagate cleanly (no hang, no leaked
   worker domains — the parallel engine spawns domains in create). *)
let test_truncated_replay_all_engines () =
  let path = truncated_trace () in
  List.iter
    (fun mode ->
      match
        Ddp_core.Profiler.run ~mode ~config:Ddp_core.Config.default
          (Ddp_core.Source.of_trace ~path)
      with
      | exception TF.Parse_error _ -> ()
      | _ -> Alcotest.fail (mode ^ ": truncated trace accepted"))
    [ "serial"; "perfect"; "parallel"; "mt"; "shadow"; "hashtable"; "stride" ];
  Sys.remove path

let test_abort_recording_idempotent () =
  let path = tmp "abort.trace" in
  if Sys.file_exists path then Sys.remove path;
  let r = TF.start_recording ~path in
  Alcotest.(check bool) "tmp file opened" true (Sys.file_exists (path ^ ".tmp"));
  TF.abort_recording r;
  TF.abort_recording r;
  (* closing twice is fine; finishing after closing is a caller bug *)
  (match TF.finish_recording r (Ddp_minir.Symtab.create ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "finish after abort accepted");
  (* an aborted recording publishes nothing and cleans up its temp file *)
  Alcotest.(check bool) "nothing published" false (Sys.file_exists path);
  Alcotest.(check bool) "temp file removed" false (Sys.file_exists (path ^ ".tmp"))

let test_recording_published_atomically () =
  (* The trace appears at [path] only on a successful finish: while the
     recording is in flight the data lives in [path ^ ".tmp"], so a crash
     mid-run never leaves a truncated file for a later load to reject. *)
  let path = tmp "atomic.trace" in
  if Sys.file_exists path then Sys.remove path;
  let r = TF.start_recording ~path in
  let symtab = Ddp_minir.Symtab.create () in
  let (_ : Ddp_minir.Interp.stats) =
    Ddp_minir.Interp.run ~hooks:(TF.recording_hooks r) ~symtab (sample_prog ())
  in
  Alcotest.(check bool) "not visible before finish" false (Sys.file_exists path);
  TF.finish_recording r symtab;
  Alcotest.(check bool) "visible after finish" true (Sys.file_exists path);
  Alcotest.(check bool) "temp file renamed away" false (Sys.file_exists (path ^ ".tmp"));
  let live, _ = Ddp_minir.Interp.trace (sample_prog ()) in
  let loaded, _ = TF.load ~path in
  Alcotest.(check bool) "published trace replays" true (live = loaded);
  Sys.remove path

let test_escaped_names () =
  (* Variable names with spaces/backslashes survive the symtab encoding.
     MiniIR names are free-form strings, so the escaping must hold. *)
  let prog =
    B.program ~name:"odd name \\ here" [ B.local "x y\\z" (B.i 1); B.assert_ B.(v "x y\\z" =: i 1) ]
  in
  let path = tmp "escape.trace" in
  TF.record ~path prog;
  let _, symtab = TF.load ~path in
  Alcotest.(check bool) "escaped var recovered" true
    (Ddp_util.Intern.mem symtab.Ddp_minir.Symtab.vars "x y\\z");
  Sys.remove path

(* -- incremental stream decoder --------------------------------------------- *)

let encode_sample () =
  let symtab = Ddp_minir.Symtab.create () in
  let events, _ = Ddp_minir.Interp.trace ~symtab (sample_prog ()) in
  let buf = Buffer.create 4096 in
  TF.to_buffer buf events symtab;
  (Buffer.contents buf, events)

let drain st =
  let rec go acc =
    match TF.Stream.next st with
    | TF.Stream.Event e -> go (e :: acc)
    | TF.Stream.Need_more | TF.Stream.Done -> List.rev acc
  in
  go []

(* The satellite contract: a v2 trace split into two chunks at EVERY
   byte offset decodes to the same event list — a mid-line cut is a
   typed [Need_more], never a parse error. *)
let test_stream_every_split_point () =
  let bytes, expected = encode_sample () in
  let n = String.length bytes in
  for cut = 0 to n do
    let st = TF.Stream.create () in
    TF.Stream.feed st (String.sub bytes 0 cut);
    let head = drain st in
    TF.Stream.feed st (String.sub bytes cut (n - cut));
    TF.Stream.eof st;
    let tail = drain st in
    if head @ tail <> expected then
      Alcotest.failf "split at byte %d/%d corrupted the event stream" cut n;
    if TF.Stream.next st <> TF.Stream.Done then
      Alcotest.failf "split at byte %d/%d: decoder not Done after eof" cut n;
    if not (TF.Stream.is_sealed st) then Alcotest.failf "split at byte %d/%d: seal lost" cut n
  done

let test_stream_tiny_chunks () =
  let bytes, expected = encode_sample () in
  List.iter
    (fun k ->
      let st = TF.Stream.create () in
      let acc = ref [] in
      let i = ref 0 in
      while !i < String.length bytes do
        let len = min k (String.length bytes - !i) in
        TF.Stream.feed st (String.sub bytes !i len);
        i := !i + len;
        acc := !acc @ drain st
      done;
      TF.Stream.eof st;
      acc := !acc @ drain st;
      Alcotest.(check bool)
        (Printf.sprintf "identical events at chunk size %d" k)
        true (!acc = expected);
      (* the symtab survives re-chunking too *)
      Alcotest.(check bool) "symtab recovered" true
        (Ddp_util.Intern.mem (TF.Stream.symtab st).Ddp_minir.Symtab.vars "a"))
    [ 1; 2; 3; 7; 64; 4096 ]

let test_stream_mid_line_is_need_more () =
  let bytes, _ = encode_sample () in
  let st = TF.Stream.create () in
  TF.Stream.feed st (String.sub bytes 0 4) (* inside the magic line *);
  match TF.Stream.next st with
  | TF.Stream.Need_more -> ()
  | TF.Stream.Event _ -> Alcotest.fail "event decoded from a partial magic line"
  | TF.Stream.Done -> Alcotest.fail "Done before the magic line completed"

let test_stream_truncated_fails_at_eof () =
  let bytes, _ = encode_sample () in
  let st = TF.Stream.create () in
  TF.Stream.feed st (String.sub bytes 0 (String.length bytes * 2 / 3));
  ignore (drain st : Ddp_minir.Event.t list);
  TF.Stream.eof st;
  match drain st with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "truncated trace (no %end seal) accepted"

let test_stream_garbage_still_errors () =
  let bytes, _ = encode_sample () in
  let header = String.sub bytes 0 (String.index bytes '\n' + 1) in
  let st = TF.Stream.create () in
  TF.Stream.feed st header;
  TF.Stream.feed st "!! certainly not a trace line !!\n";
  match drain st with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "garbage line slipped through the incremental decoder"

let test_stream_feed_after_eof () =
  let bytes, _ = encode_sample () in
  let st = TF.Stream.create () in
  TF.Stream.feed st bytes;
  TF.Stream.eof st;
  ignore (drain st : Ddp_minir.Event.t list);
  match TF.Stream.feed st "more" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "feed accepted after eof"

(* -- codec equivalence ------------------------------------------------------- *)

module Event = Ddp_minir.Event

(* The reference writer: the Printf-based emitter the hand-written
   encoder replaced, kept verbatim as the byte-for-byte oracle of the
   version-2 format. *)
let printf_encode events (symtab : Ddp_minir.Symtab.t) =
  let buf = Buffer.create 4096 in
  let emit = Buffer.add_string buf in
  let p fmt = Printf.ksprintf emit fmt in
  let b x = if x then 1 else 0 in
  let sync_kind_int = function
    | Event.Task_spawn -> 0
    | Event.Task_join -> 1
    | Event.Lock_acquire -> 2
    | Event.Lock_release -> 3
  in
  emit "ddp-trace 2\n";
  List.iter
    (fun c ->
      emit (Printf.sprintf "%%class %s" (Event.Class.name c));
      List.iter (fun tag -> emit (Printf.sprintf " %c" tag)) (TF.class_tags c);
      emit "\n")
    Event.Class.all;
  List.iter
    (function
      | Event.Read { addr; loc; var; thread; time; locked } ->
        p "R %d %d %d %d %d %d\n" addr loc var thread time (b locked)
      | Event.Write { addr; loc; var; thread; time; locked } ->
        p "W %d %d %d %d %d %d\n" addr loc var thread time (b locked)
      | Event.Region_enter { loc; thread; time } -> p "B %d %d %d\n" loc thread time
      | Event.Region_iter { loc; thread; time } -> p "I %d %d %d\n" loc thread time
      | Event.Region_exit { loc; end_loc; iterations; thread; time } ->
        p "E %d %d %d %d %d\n" loc end_loc iterations thread time
      | Event.Call { loc; func; thread; time } -> p "C %d %d %d %d\n" loc func thread time
      | Event.Return { func; thread; time } -> p "T %d %d %d\n" func thread time
      | Event.Thread_end { thread } -> p "X %d\n" thread
      | Event.Alloc { base; len; var } -> p "A %d %d %d\n" base len var
      | Event.Free { base; len; var } -> p "F %d %d %d\n" base len var
      | Event.Sync { kind; obj; thread; time } ->
        p "Y %d %d %d %d\n" (sync_kind_int kind) obj thread time)
    events;
  Ddp_util.Intern.iter symtab.Ddp_minir.Symtab.vars (fun id name ->
      emit (Printf.sprintf "%%var %d %s\n" id (String.escaped name)));
  Ddp_util.Intern.iter symtab.Ddp_minir.Symtab.files (fun id name ->
      emit (Printf.sprintf "%%file %d %s\n" id (String.escaped name)));
  emit "%end\n";
  Buffer.contents buf

let encode events symtab =
  let buf = Buffer.create 4096 in
  TF.to_buffer buf events symtab;
  Buffer.contents buf

(* Every constructor, with the ints a digit loop gets wrong first:
   0, single digits, powers of ten and their neighbours, negatives,
   [max_int] and [min_int]. *)
let extreme_events () =
  let ints =
    [ 0; 1; 9; 10; 11; 99; 100; 999; 1000; 9999; 10000; 123456789; -1; -9; -10; -10000;
      max_int; min_int; max_int - 1; min_int + 1; 1_000_000_000_000_000_000 ]
  in
  let kinds = Event.[ Task_spawn; Task_join; Lock_acquire; Lock_release ] in
  List.concat_map
    (fun n ->
      Event.
        [
          Read { addr = n; loc = n; var = n; thread = n; time = n; locked = n land 1 = 1 };
          Write { addr = -n; loc = n; var = 3; thread = 0; time = n; locked = false };
          Region_enter { loc = n; thread = 1; time = n };
          Region_iter { loc = n; thread = n; time = 2 };
          Region_exit { loc = n; end_loc = -n; iterations = n; thread = 0; time = n };
          Alloc { base = n; len = 8; var = n };
          Free { base = n; len = n; var = 0 };
          Call { loc = n; func = n; thread = n; time = n };
          Return { func = n; thread = 0; time = n };
          Thread_end { thread = n };
          Sync { kind = List.nth kinds (abs (n mod 4)); obj = n; thread = n; time = n };
        ])
    ints

(* Locks, task spawn/join, a freed array, calls and nested loops in one
   program: every class of the algebra on the wire. *)
let rich_prog () =
  B.program ~name:"rich"
    ~funcs:[ B.proc "bump" [ "k" ] [ B.store "a" (B.v "k") B.(idx "a" (v "k") +: i 1) ] ]
    [
      B.arr "a" (B.i 16);
      B.arr "tmp" (B.i 4);
      B.for_ "i" (B.i 0) (B.i 4) (fun iv ->
          [ B.store "tmp" iv iv; B.for_ "j" (B.i 0) (B.i 3) (fun jv -> [ B.call_proc "bump" [ jv ] ]) ]);
      B.free "tmp";
      B.spawn [ B.lock 1; B.store "a" (B.i 0) B.(idx "a" (i 0) +: i 1); B.unlock 1; B.call_proc "bump" [ B.i 2 ] ];
      B.spawn [ B.lock 1; B.store "a" (B.i 0) B.(idx "a" (i 0) +: i 2); B.unlock 1; B.store "a" (B.i 5) (B.i 1) ];
      B.spawn [ B.store "a" (B.i 6) (B.i 2) ];
      B.sync ();
      B.local "s" B.(idx "a" (i 5) +: idx "a" (i 6));
    ]

let daemon_replay_traces () =
  (* the served traffic of the daemon-replay benchmark, seed 1 *)
  List.map
    (fun (name, scale) ->
      let w = Ddp_workloads.Registry.find name in
      let symtab = Ddp_minir.Symtab.create () in
      let events, _ =
        Ddp_minir.Interp.trace ~input_seed:1 ~sched_seed:2 ~symtab (w.Ddp_workloads.Wl.seq ~scale)
      in
      (name, events, symtab))
    [ ("msort-task", 4); ("msort-task-racy", 4); ("scan-task", 32); ("scan-task-racy", 40) ]

let test_encoder_matches_printf () =
  let rich =
    let symtab = Ddp_minir.Symtab.create () in
    let events, _ = Ddp_minir.Interp.trace ~symtab (rich_prog ()) in
    ("rich", events, symtab)
  in
  let extreme = ("extremes", extreme_events (), Ddp_minir.Symtab.create ()) in
  List.iter
    (fun (name, events, symtab) ->
      let classes = List.sort_uniq Event.Class.compare (List.map Event.class_of events) in
      if name = "rich" && List.length classes <> List.length Event.Class.all then
        Alcotest.failf "%s: only %d of the event classes occur" name (List.length classes);
      let got = encode events symtab in
      if got <> printf_encode events symtab then Alcotest.failf "%s: encoding differs from Printf's" name;
      (* and it decodes back to the same events *)
      let st = TF.Stream.create () in
      TF.Stream.feed st got;
      TF.Stream.eof st;
      let rec go acc =
        match TF.Stream.next st with
        | TF.Stream.Event e -> go (e :: acc)
        | TF.Stream.Done -> List.rev acc
        | TF.Stream.Need_more -> Alcotest.fail "Need_more after eof"
      in
      if go [] <> events then Alcotest.failf "%s: decode (encode events) <> events" name)
    (rich :: extreme :: daemon_replay_traces ())

(* The files the recorders write are the same bytes as [to_buffer]. *)
let test_writers_agree () =
  let symtab = Ddp_minir.Symtab.create () in
  let events, _ = Ddp_minir.Interp.trace ~symtab (rich_prog ()) in
  let expected = printf_encode events symtab in
  let path = tmp "writers.trace" in
  TF.save ~path events symtab;
  Alcotest.(check string) "save" expected (In_channel.with_open_bin path In_channel.input_all);
  TF.record ~path (rich_prog ());
  Alcotest.(check string) "record" expected (In_channel.with_open_bin path In_channel.input_all);
  Sys.remove path

(* Non-canonical event lines.  The expectations are those of the
   [split_on_char] + [int_of_string_opt] line parser the in-place
   decoder replaced: a field is any run of non-spaces that OCaml's
   integer syntax accepts, fields are separated by one or more spaces,
   and the tag need not be followed by one.  [None] = rejected. *)
let rd ?(locked = false) addr loc var thread time =
  [ Event.Read { addr; loc; var; thread; time; locked } ]

let corpus =
  [
    ("canonical", "", "R 1 2 3 4 5 0\n", Some (rd 1 2 3 4 5));
    ("double spaces", "", "R  1 2  3 4   5 1\n", Some (rd ~locked:true 1 2 3 4 5));
    ("trailing spaces", "", "R 1 2 3 4 5 0  \n", Some (rd 1 2 3 4 5));
    ("no space after tag", "", "R1 2 3 4 5 0\n", Some (rd 1 2 3 4 5));
    ("plus sign", "", "R +5 2 3 4 5 0\n", Some (rd 5 2 3 4 5));
    ("hex", "", "R 0x1f 2 3 4 5 0\n", Some (rd 31 2 3 4 5));
    ("octal and binary", "", "R 0o17 0b101 3 4 5 0\n", Some (rd 15 5 3 4 5));
    ("underscores", "", "R 1_000 2 3 4 5 0\n", Some (rd 1000 2 3 4 5));
    ("minus one", "", "R -1 2 3 4 5 0\n", Some (rd (-1) 2 3 4 5));
    ("minus zero", "", "R -0 2 3 4 5 0\n", Some (rd 0 2 3 4 5));
    ("leading zeros", "", "R 007 2 3 4 5 0\n", Some (rd 7 2 3 4 5));
    ("24 digits, leading zeros", "", "R 000000000000000000000042 2 3 4 5 0\n", Some (rd 42 2 3 4 5));
    ("18 digits", "", "R 999999999999999999 2 3 4 5 0\n", Some (rd 999999999999999999 2 3 4 5));
    ("19 digits", "", "R 1234567890123456789 2 3 4 5 0\n", Some (rd 1234567890123456789 2 3 4 5));
    ("max_int", "", "R 4611686018427387903 2 3 4 5 0\n", Some (rd max_int 2 3 4 5));
    ("min_int", "", "R -4611686018427387904 2 3 4 5 0\n", Some (rd min_int 2 3 4 5));
    ("max_int + 1", "", "R 4611686018427387904 2 3 4 5 0\n", None);
    ("min_int - 1", "", "R -4611686018427387905 2 3 4 5 0\n", None);
    ("19 digits past max_int", "", "R 9999999999999999999 2 3 4 5 0\n", None);
    ("20 digits", "", "R 99999999999999999999 2 3 4 5 0\n", None);
    ("lone minus", "", "R - 2 3 4 5 0\n", None);
    ("double minus", "", "R --5 2 3 4 5 0\n", None);
    ("minus inside", "", "R 5-3 2 3 4 5 0\n", None);
    ("tab separator", "", "R 1\t2 3 4 5 0\n", None);
    ("carriage return", "", "R 1 2 3 4 5 0\r\n", None);
    ("letters", "", "R 1 2 x 4 5 0\n", None);
    ("too few fields", "", "R 1 2 3 4 5\n", None);
    ("too many fields", "", "R 1 2 3 4 5 0 7\n", None);
    ("leading space", "", " R 1 2 3 4 5 0\n", None);
    ("empty line", "", "\nR 1 2 3 4 5 0\n\n", Some (rd 1 2 3 4 5));
    ("unknown tag", "", "Q 1 2 3\n", None);
    ("known sync kind", "", "Y 0 7 1 2\n",
     Some [ Event.Sync { kind = Event.Task_spawn; obj = 7; thread = 1; time = 2 } ]);
    ("unknown sync kind", "", "Y 4 7 1 2\n", None);
    ("unknown class: skipped", "%class quux Q\n", "Q 1 2 3\nQ\n", Some []);
    ("unknown class: bad int still rejected", "%class quux Q\n", "Q 1 x\n", None);
    ("unknown class claims a known tag", "%class quux R\n", "R 1 2\n", Some []);
    ("known class, wrong tags", "%class memory R\n", "R 1 2 3 4 5 0\n", None);
    ("line after %end", "", "%end\nR 1 2 3 4 5 0\n", None);
    ("empty line after %end", "", "%end\n\n", None);
  ]

let corpus_trace header body =
  let empty = encode [] (Ddp_minir.Symtab.create ()) in
  (* the empty trace is the v2 header, then the seal *)
  let header_only = String.sub empty 0 (String.length empty - String.length "%end\n") in
  let sealed = String.starts_with ~prefix:"%end" body in
  header_only ^ header ^ body ^ if sealed then "" else "%end\n"

(* Decode [chunks] fed one after another; [None] on Parse_error. *)
let decode_chunks feed chunks =
  let st = TF.Stream.create () in
  let acc = ref [] in
  let rec drain () =
    match TF.Stream.next st with
    | TF.Stream.Event e ->
      acc := e :: !acc;
      drain ()
    | TF.Stream.Need_more | TF.Stream.Done -> ()
  in
  match
    List.iter
      (fun c ->
        feed st c;
        drain ())
      chunks;
    TF.Stream.eof st;
    drain ()
  with
  | () -> Some (List.rev !acc)
  | exception TF.Parse_error _ -> None

(* [feed_slice] through one reused buffer, overwritten after each drain:
   the receiver's discipline. *)
let slice_feeder () =
  let frame = Bytes.make 64 '#' in
  fun st c ->
    let n = String.length c in
    let frame = if n > Bytes.length frame then Bytes.create n else frame in
    Bytes.blit_string c 0 frame 0 n;
    TF.Stream.feed_slice st frame ~off:0 ~len:n

let test_corpus_acceptance () =
  List.iter
    (fun (name, header, body, expected) ->
      let trace = corpus_trace header body in
      let n = String.length trace in
      let show = function None -> "rejected" | Some evs -> Printf.sprintf "%d events" (List.length evs) in
      let check how got =
        if got <> expected then Alcotest.failf "%s (%s): got %s, want %s" name how (show got) (show expected)
      in
      check "whole" (decode_chunks TF.Stream.feed [ trace ]);
      for cut = 0 to n do
        let parts = [ String.sub trace 0 cut; String.sub trace cut (n - cut) ] in
        check (Printf.sprintf "split at %d" cut) (decode_chunks TF.Stream.feed parts);
        let feed = slice_feeder () in
        check (Printf.sprintf "slices split at %d" cut) (decode_chunks feed parts)
      done)
    corpus

(* A buffer reused frame after frame: every line cut by a frame boundary
   must survive the buffer being overwritten. *)
let test_reused_frame_buffer () =
  let bytes, expected = encode_sample () in
  List.iter
    (fun k ->
      let frames = List.init ((String.length bytes + k - 1) / k) (fun i ->
          String.sub bytes (i * k) (min k (String.length bytes - (i * k)))) in
      match decode_chunks (slice_feeder ()) frames with
      | Some got when got = expected -> ()
      | _ -> Alcotest.failf "frames of %d bytes through one buffer: events differ" k)
    [ 1; 5; 17; 64; 1000 ]

let suite =
  [
    Alcotest.test_case "roundtrip events" `Quick test_roundtrip_events;
    Alcotest.test_case "roundtrip symtab" `Quick test_roundtrip_symtab;
    Alcotest.test_case "replay into profiler" `Quick test_replay_into_profiler_matches_live;
    Alcotest.test_case "load errors" `Quick test_load_errors;
    Alcotest.test_case "garbage symtab lines" `Quick test_garbage_symtab;
    Alcotest.test_case "truncated file" `Quick test_truncated_file;
    Alcotest.test_case "truncated replay fails cleanly, all engines" `Quick
      test_truncated_replay_all_engines;
    Alcotest.test_case "abort_recording is idempotent" `Quick test_abort_recording_idempotent;
    Alcotest.test_case "recording published atomically" `Quick
      test_recording_published_atomically;
    Alcotest.test_case "escaped names" `Quick test_escaped_names;
    Alcotest.test_case "stream: every split point" `Quick test_stream_every_split_point;
    Alcotest.test_case "stream: tiny chunks" `Quick test_stream_tiny_chunks;
    Alcotest.test_case "stream: mid-line is Need_more" `Quick test_stream_mid_line_is_need_more;
    Alcotest.test_case "stream: truncation fails at eof" `Quick test_stream_truncated_fails_at_eof;
    Alcotest.test_case "stream: garbage still errors" `Quick test_stream_garbage_still_errors;
    Alcotest.test_case "stream: feed after eof" `Quick test_stream_feed_after_eof;
    Alcotest.test_case "codec: encoder bytes == Printf emitter" `Quick test_encoder_matches_printf;
    Alcotest.test_case "codec: save and record write the same bytes" `Quick test_writers_agree;
    Alcotest.test_case "codec: non-canonical lines, every split" `Quick test_corpus_acceptance;
    Alcotest.test_case "codec: one reused frame buffer" `Quick test_reused_frame_buffer;
  ]
