(* Tests for the profiling daemon: wire framing, admission control,
   client backoff, tenant fault isolation and the SIGTERM drain.

   Everything runs in-process against a real [Server.t] on a fresh
   Unix-domain socket per test — same binary-level behavior as ddpd,
   deterministic teardown.  The broader randomized version of these
   checks is `ddpcheck daemon` (lib/testkit/daemon_chaos.ml). *)

module B = Ddp_minir.Builder
module TF = Ddp_minir.Trace_file
module Dep = Ddp_core.Dep
module Dep_store = Ddp_core.Dep_store
module Health = Ddp_core.Health
module Profiler = Ddp_core.Profiler
module Source = Ddp_core.Source
module Json = Ddp_obs.Json
module Admission = Ddp_daemon.Admission
module Client = Ddp_daemon.Client
module Server = Ddp_daemon.Server
module Wire = Ddp_daemon.Wire

(* -- scaffolding ----------------------------------------------------------- *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddp_test_daemon_%d_%d.sock" (Unix.getpid ()) !sock_counter)

let with_server ?(tweak = fun c -> c) f =
  let sock = fresh_sock () in
  let cfg =
    tweak { (Server.default_config ~socket_path:sock) with Server.workers = 2; log = ignore }
  in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f ~sock ~server)

let sample_prog () =
  B.program ~name:"daemon-sample"
    [
      B.arr "a" (B.i 12);
      B.for_ "i" (B.i 0) (B.i 12) (fun iv -> [ B.store "a" iv iv ]);
      B.for_ "j" (B.i 1) (B.i 12) (fun jv ->
          [ B.store "a" jv B.(idx "a" (jv -: i 1) +: idx "a" jv) ]);
      B.local "s" (B.idx "a" (B.i 5));
    ]

let collect () =
  let symtab = Ddp_minir.Symtab.create () in
  let events, _ = Ddp_minir.Interp.trace ~symtab (sample_prog ()) in
  (events, symtab)

let batch_keys events symtab =
  let o = Profiler.run ~mode:"serial" (Source.of_events ~symtab events) in
  Dep_store.key_set o.Profiler.deps

let ok_report = function
  | Ok r -> r
  | Error e -> Alcotest.failf "submit failed: %s" (Client.error_to_string e)

let counter r k = match List.assoc_opt k r.Client.counters with Some n -> n | None -> 0

(* the headline ledger/counter agreement, from the typed report *)
let check_loss_matches_counters r =
  Alcotest.(check int) "dropped chunks == obs" (counter r "bp_dropped_chunks")
    r.Client.loss.Health.dropped_chunks;
  Alcotest.(check int) "dropped events == obs" (counter r "bp_dropped_events")
    r.Client.loss.Health.dropped_events;
  Alcotest.(check int) "unprocessed == obs" (counter r "unprocessed_chunks")
    r.Client.loss.Health.unprocessed_chunks

(* -- wire framing ----------------------------------------------------------- *)

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      List.iter
        (fun (ty, payload) ->
          Wire.write_frame a ty payload;
          match Wire.read_frame b with
          | Some (ty', payload') ->
            Alcotest.(check string) "frame type" (Wire.frame_name ty) (Wire.frame_name ty');
            Alcotest.(check string) "payload" payload payload'
          | None -> Alcotest.fail "unexpected EOF")
        [
          (Wire.Hello, "name=x\nmode=serial");
          (Wire.Data, String.make 70000 'z');
          (Wire.Fin, "");
          (Wire.Report, "{}");
        ];
      (* a garbage type byte is a protocol error, not a crash *)
      ignore (Unix.write_substring a "\x00\x00\x00\x00?" 0 5 : int);
      (match Wire.read_frame b with
      | exception Wire.Protocol_error _ -> ()
      | _ -> Alcotest.fail "garbage frame type accepted");
      (* an absurd length prefix is refused before any allocation *)
      ignore (Unix.write_substring a "\x7f\xff\xff\xffD" 0 5 : int);
      match Wire.read_frame b with
      | exception Wire.Protocol_error _ -> ()
      | _ -> Alcotest.fail "oversized frame length accepted")

let test_kv_roundtrip () =
  let kvs = [ ("name", "a b c"); ("mode", "serial"); ("seed", "42") ] in
  Alcotest.(check bool) "kv roundtrip" true (Wire.kv_decode (Wire.kv_encode kvs) = kvs);
  (match Wire.kv_decode "no-equals-sign" with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "kv line without = accepted");
  match Wire.kv_decode "a=1\na=2" with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "repeated kv key accepted"

(* -- admission + backoff ---------------------------------------------------- *)

let test_admission_control () =
  let adm = Admission.create ~max_sessions:2 ~degrade_watermark:4 () in
  Alcotest.(check bool) "slot 1" true (Admission.try_admit adm = Admission.Admit);
  Alcotest.(check bool) "slot 2" true (Admission.try_admit adm = Admission.Admit);
  (match Admission.try_admit adm with
  | Admission.Busy { retry_after_ms; draining } ->
    Alcotest.(check bool) "retry hint positive" true (retry_after_ms > 0);
    Alcotest.(check bool) "not draining" false draining
  | Admission.Admit -> Alcotest.fail "admitted past max_sessions");
  Admission.release adm;
  Alcotest.(check bool) "slot reclaimed" true (Admission.try_admit adm = Admission.Admit);
  (* degradation rung: the global queue gauge crosses the watermark *)
  Alcotest.(check bool) "not degraded" false (Admission.degraded adm);
  Admission.queue_delta adm 4;
  Alcotest.(check bool) "degraded at watermark" true (Admission.degraded adm);
  Admission.queue_delta adm (-4);
  Alcotest.(check bool) "recovers below watermark" false (Admission.degraded adm);
  (* drain rung: refuses forever, and says so *)
  Admission.begin_drain adm;
  match Admission.try_admit adm with
  | Admission.Busy { draining = true; _ } -> ()
  | _ -> Alcotest.fail "draining daemon still admits"

let test_backoff_bounds () =
  let rng = Random.State.make [| 7 |] in
  for attempt = 0 to 12 do
    let d = Client.backoff_ms ~base_ms:25 ~cap_ms:2000 ~rng ~floor_ms:0 attempt in
    let ceiling = min 2000 (25 * (1 lsl min attempt 20)) in
    Alcotest.(check bool) "positive" true (d >= 1);
    Alcotest.(check bool) "capped" true (d <= max 1 ceiling)
  done;
  (* a server retry-after hint floors the jitter *)
  let d = Client.backoff_ms ~base_ms:1 ~cap_ms:4 ~rng ~floor_ms:500 0 in
  Alcotest.(check bool) "floor honored" true (d >= 500)

(* -- end-to-end sessions ---------------------------------------------------- *)

let test_submit_matches_batch () =
  let events, symtab = collect () in
  with_server (fun ~sock ~server:_ ->
      let r =
        ok_report (Client.submit ~seed:1 ~socket:sock ~name:"t" ~mode:"serial" ~events ~symtab ())
      in
      Alcotest.(check bool) "complete" true r.Client.complete;
      Alcotest.(check int) "all events processed" (List.length events) r.Client.events_processed;
      Alcotest.(check bool) "keys == serial batch" true
        (Dep_store.Key_set.equal (Client.dep_key_set r) (batch_keys events symtab)))

let test_concurrent_sessions () =
  let events, symtab = collect () in
  let expected = batch_keys events symtab in
  with_server
    ~tweak:(fun c -> { c with Server.max_sessions = 4 })
    (fun ~sock ~server:_ ->
      let results = Array.make 4 None in
      let threads =
        Array.init 4 (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Some
                    (Client.submit ~seed:(100 + i) ~chunk_bytes:397 ~socket:sock
                       ~name:(Printf.sprintf "c%d" i) ~mode:"serial" ~events ~symtab ()))
              ())
      in
      Array.iter Thread.join threads;
      Array.iter
        (fun res ->
          let r = ok_report (Option.get res) in
          Alcotest.(check bool) "complete" true r.Client.complete;
          Alcotest.(check bool) "keys == serial batch" true
            (Dep_store.Key_set.equal (Client.dep_key_set r) expected))
        results)

(* Recycled signatures under concurrency: tenants on different traces,
   back to back and side by side, each taking stores another tenant
   just handed back.  Two tenants sharing a store would mix their
   traces' accesses and change the keys. *)
let test_tenants_never_share_a_store () =
  let traces =
    collect ()
    :: List.map
         (fun (name, scale) ->
           let w = Ddp_workloads.Registry.find name in
           let symtab = Ddp_minir.Symtab.create () in
           let events, _ =
             Ddp_minir.Interp.trace ~input_seed:5 ~sched_seed:6 ~symtab (w.Ddp_workloads.Wl.seq ~scale)
           in
           (events, symtab))
         [ ("msort-task", 1); ("scan-task", 2); ("msort-task-racy", 1) ]
  in
  let expected = List.map (fun (events, symtab) -> batch_keys events symtab) traces in
  let slots = Ddp_core.Config.default.Ddp_core.Config.slots in
  with_server
    ~tweak:(fun c -> { c with Server.max_sessions = 4 })
    (fun ~sock ~server:_ ->
      let submit i (events, symtab) =
        ok_report
          (Client.submit ~seed:(200 + i) ~chunk_bytes:1021 ~socket:sock
             ~name:(Printf.sprintf "t%d" i) ~mode:"serial" ~events ~symtab ())
      in
      let check i r =
        Alcotest.(check bool) "complete" true r.Client.complete;
        if not (Dep_store.Key_set.equal (Client.dep_key_set r) (List.nth expected i)) then
          Alcotest.failf "tenant on trace %d: keys differ from its serial batch run" i
      in
      (* warm the pool *)
      List.iteri (fun i tr -> check i (submit i tr)) traces;
      Alcotest.(check bool) "finished tenants left stores in the pool" true
        (Ddp_core.Sig_store.For_tests.pooled ~slots >= 2);
      (* reports are checked on this thread: a failure inside a client
         thread would only kill that thread *)
      let reports = Array.make (List.length traces) [] in
      let threads =
        List.mapi
          (fun i tr ->
            Thread.create
              (fun () ->
                for _ = 1 to 3 do
                  reports.(i) <-
                    Client.submit ~seed:(300 + i) ~chunk_bytes:1021 ~socket:sock
                      ~name:(Printf.sprintf "c%d" i) ~mode:"serial" ~events:(fst tr) ~symtab:(snd tr) ()
                    :: reports.(i)
                done)
              ())
          traces
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i rs ->
          Alcotest.(check int) "three sessions per client" 3 (List.length rs);
          List.iter (fun r -> check i (ok_report r)) rs)
        reports;
      Alcotest.(check bool) "pool stays bounded" true
        (Ddp_core.Sig_store.For_tests.pooled ~slots <= Ddp_core.Sig_store.For_tests.pool_cap))

let test_busy_and_retry () =
  let events, symtab = collect () in
  with_server
    ~tweak:(fun c -> { c with Server.max_sessions = 1 })
    (fun ~sock ~server:_ ->
      (* a hog takes the only slot and sits on it *)
      let hog = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close hog with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect hog (Unix.ADDR_UNIX sock);
          Wire.write_frame hog Wire.Hello (Wire.kv_encode [ ("name", "hog"); ("mode", "serial") ]);
          (match Wire.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) hog with
          | Some (Wire.Admit, _) -> ()
          | _ -> Alcotest.fail "hog not admitted");
          (* a second HELLO gets the typed BUSY, with a retry hint *)
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX sock);
              Wire.write_frame fd Wire.Hello (Wire.kv_encode [ ("name", "x"); ("mode", "serial") ]);
              match Wire.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) fd with
              | Some (Wire.Busy, payload) ->
                let kvs = Wire.kv_decode payload in
                Alcotest.(check bool) "retry-after-ms present" true
                  (Option.is_some (Wire.kv_get kvs "retry-after-ms"))
              | _ -> Alcotest.fail "expected BUSY while the slot is held");
          (* a client with a short retry budget gives up with a typed error *)
          (match
             Client.submit ~retries:1 ~base_ms:1 ~cap_ms:2 ~seed:3 ~socket:sock ~name:"y"
               ~mode:"serial" ~events ~symtab ()
           with
          | Error (Client.Unavailable _) -> ()
          | Ok _ -> Alcotest.fail "admitted past max_sessions"
          | Error e -> Alcotest.failf "wrong error class: %s" (Client.error_to_string e));
          (* the hog finishes; a patient client retries into the freed slot *)
          let buf = Buffer.create 1024 in
          TF.to_buffer buf events symtab;
          Wire.write_frame hog Wire.Data (Buffer.contents buf);
          Wire.write_frame hog Wire.Fin "";
          (match Wire.read_frame ~deadline:(Unix.gettimeofday () +. 10.0) hog with
          | Some (Wire.Report, _) -> ()
          | _ -> Alcotest.fail "hog got no report"));
      let r =
        ok_report
          (Client.submit ~retries:8 ~base_ms:5 ~seed:4 ~socket:sock ~name:"z" ~mode:"serial"
             ~events ~symtab ())
      in
      Alcotest.(check bool) "admitted after release" true r.Client.complete)

let test_refused_modes () =
  let events, symtab = collect () in
  with_server (fun ~sock ~server:_ ->
      (match
         Client.submit ~seed:5 ~socket:sock ~name:"p" ~mode:"parallel" ~events ~symtab ()
       with
      | Error (Client.Refused _) -> ()
      | Ok _ -> Alcotest.fail "daemon accepted the parallel engine"
      | Error e -> Alcotest.failf "wrong error class: %s" (Client.error_to_string e));
      match
        Client.submit ~seed:6 ~socket:sock ~name:"q" ~mode:"no-such-mode" ~events ~symtab ()
      with
      | Error (Client.Refused _) -> ()
      | Ok _ -> Alcotest.fail "daemon accepted an unknown mode"
      | Error e -> Alcotest.failf "wrong error class: %s" (Client.error_to_string e))

(* -- fault isolation --------------------------------------------------------- *)

let test_crash_victim_isolated () =
  let events, symtab = collect () in
  let expected = batch_keys events symtab in
  with_server (fun ~sock ~server:_ ->
      let victim = ref None and survivor = ref None in
      let tv =
        Thread.create
          (fun () ->
            victim :=
              Some
                (Client.submit ~inject_crash:1 ~seed:11 ~socket:sock ~name:"victim"
                   ~mode:"serial" ~events ~symtab ()))
          ()
      in
      let ts =
        Thread.create
          (fun () ->
            survivor :=
              Some
                (Client.submit ~seed:12 ~socket:sock ~name:"survivor" ~mode:"serial" ~events
                   ~symtab ()))
          ()
      in
      Thread.join tv;
      Thread.join ts;
      let v = ok_report (Option.get !victim) in
      Alcotest.(check bool) "victim partial" false v.Client.complete;
      Alcotest.(check bool) "victim carries the fault" true (v.Client.worker_faults >= 1);
      Alcotest.(check bool) "crash counted" true (counter v "worker_crashes" >= 1);
      check_loss_matches_counters v;
      (* whatever the victim salvaged is a prefix of its own stream *)
      Alcotest.(check bool) "victim deps from its own stream" true
        (Dep_store.Key_set.subset (Client.dep_key_set v) expected);
      let s = ok_report (Option.get !survivor) in
      Alcotest.(check bool) "survivor complete" true s.Client.complete;
      Alcotest.(check bool) "survivor keys == serial batch" true
        (Dep_store.Key_set.equal (Client.dep_key_set s) expected))

let test_corrupt_frame_isolated () =
  let events, symtab = collect () in
  with_server (fun ~sock ~server:_ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX sock);
          Wire.write_frame fd Wire.Hello (Wire.kv_encode [ ("name", "bad"); ("mode", "serial") ]);
          (match Wire.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) fd with
          | Some (Wire.Admit, _) -> ()
          | _ -> Alcotest.fail "not admitted");
          Wire.write_frame fd Wire.Data "<<< not a trace >>>\n";
          (try Wire.write_frame fd Wire.Fin "" with Unix.Unix_error _ -> ());
          match Wire.read_frame ~deadline:(Unix.gettimeofday () +. 10.0) fd with
          | Some (Wire.Report, payload) -> (
            match Json.member "complete" (Json.parse payload) with
            | Some (Json.Bool false) -> ()
            | _ -> Alcotest.fail "corrupt stream reported Complete")
          | _ -> Alcotest.fail "no report for the corrupt session");
      (* the daemon itself is unharmed: next session is served normally *)
      let r =
        ok_report
          (Client.submit ~seed:13 ~socket:sock ~name:"after" ~mode:"serial" ~events ~symtab ())
      in
      Alcotest.(check bool) "daemon survived the corrupt frame" true r.Client.complete)

let test_idle_timeout_stall () =
  let events, symtab = collect () in
  with_server
    ~tweak:(fun c -> { c with Server.idle_timeout = 0.3 })
    (fun ~sock ~server:_ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX sock);
          Wire.write_frame fd Wire.Hello (Wire.kv_encode [ ("name", "slow"); ("mode", "serial") ]);
          (match Wire.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) fd with
          | Some (Wire.Admit, _) -> ()
          | _ -> Alcotest.fail "not admitted");
          let buf = Buffer.create 1024 in
          TF.to_buffer buf events symtab;
          Wire.write_frame fd Wire.Data (String.sub (Buffer.contents buf) 0 64);
          (* ...and then silence, past the idle timeout *)
          match Wire.read_frame ~deadline:(Unix.gettimeofday () +. 10.0) fd with
          | Some (Wire.Report, payload) ->
            let j = Json.parse payload in
            (match Json.member "complete" j with
            | Some (Json.Bool false) -> ()
            | _ -> Alcotest.fail "stalled session reported Complete");
            let reasons =
              match Option.bind (Json.member "reasons" j) Json.to_list with
              | Some l -> List.filter_map Json.to_str l
              | None -> []
            in
            Alcotest.(check bool) "deadline reason" true
              (List.exists
                 (fun r ->
                   String.length r >= 8 && String.sub (String.lowercase_ascii r) 0 8 = "deadline")
                 reasons)
          | _ -> Alcotest.fail "no report for the stalled session"))

(* -- backpressure accounting ------------------------------------------------- *)

let test_drop_policy_conservation () =
  let events, symtab = collect () in
  (* a long stream through a tiny queue makes policy drops likely; the
     invariant below must hold whether or not any drop occurred *)
  let long = List.concat (List.init 40 (fun _ -> events)) in
  with_server
    ~tweak:(fun c -> { c with Server.queue_budget = 1; batch_size = 16 })
    (fun ~sock ~server:_ ->
      let r =
        ok_report
          (Client.submit ~policy:Ddp_core.Config.Drop_new ~seed:21 ~chunk_bytes:911 ~socket:sock
             ~name:"droppy" ~mode:"serial" ~events:long ~symtab ())
      in
      Alcotest.(check int) "every event received" (List.length long) r.Client.events_received;
      Alcotest.(check int) "received == processed + dropped"
        r.Client.events_received
        (r.Client.events_processed + r.Client.loss.Health.dropped_events);
      Alcotest.(check int) "nothing left unprocessed on a clean FIN" 0
        r.Client.loss.Health.unprocessed_chunks;
      check_loss_matches_counters r)

(* -- drain ------------------------------------------------------------------- *)

let test_drain_salvages_stragglers () =
  let events, symtab = collect () in
  let metrics = Filename.temp_file "ddp_test_drain" ".json" in
  Sys.remove metrics;
  let sock = fresh_sock () in
  let cfg =
    {
      (Server.default_config ~socket_path:sock) with
      Server.workers = 2;
      drain_grace = 0.3;
      metrics_out = Some metrics;
      log = ignore;
    }
  in
  let server = Server.start cfg in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Wire.write_frame fd Wire.Hello (Wire.kv_encode [ ("name", "straggler"); ("mode", "serial") ]);
      (match Wire.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) fd with
      | Some (Wire.Admit, _) -> ()
      | _ -> Alcotest.fail "not admitted");
      let buf = Buffer.create 1024 in
      TF.to_buffer buf events symtab;
      Wire.write_frame fd Wire.Data (String.sub (Buffer.contents buf) 0 128);
      (* stop with the session still open: drain must not hang *)
      let t0 = Unix.gettimeofday () in
      Server.stop server;
      Alcotest.(check bool) "drain bounded" true (Unix.gettimeofday () -. t0 < 5.0));
  (* the straggler was salvaged into the final metrics document *)
  let j = Json.parse (In_channel.with_open_text metrics In_channel.input_all) in
  (match Option.bind (Json.member "closed" j) Json.to_list with
  | Some (_ :: _ as closed) ->
    Alcotest.(check bool) "straggler recorded Partial" true
      (List.exists
         (fun c -> match Json.member "complete" c with Some (Json.Bool false) -> true | _ -> false)
         closed)
  | _ -> Alcotest.fail "no closed-session history in the metrics flush");
  Sys.remove metrics;
  (* the socket is gone: a new client gets a typed Unavailable *)
  match Client.status ~retries:0 ~socket:sock () with
  | Error (Client.Unavailable _) -> ()
  | Ok _ -> Alcotest.fail "stopped daemon still answering"
  | Error e -> Alcotest.failf "wrong error class: %s" (Client.error_to_string e)

let test_status_document () =
  with_server (fun ~sock ~server:_ ->
      match Client.status ~socket:sock () with
      | Error e -> Alcotest.failf "status failed: %s" (Client.error_to_string e)
      | Ok j -> (
        (match Json.member "schema" j with
        | Some (Json.Str "ddpd-status/1") -> ()
        | _ -> Alcotest.fail "wrong status schema");
        match Option.bind (Json.member "admission" j) (fun a -> Json.member "active" a) with
        | Some (Json.Int 0) -> ()
        | _ -> Alcotest.fail "fresh daemon reports active sessions"))

let suite =
  [
    Alcotest.test_case "wire frame roundtrip + garbage" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire kv roundtrip" `Quick test_kv_roundtrip;
    Alcotest.test_case "admission ladder" `Quick test_admission_control;
    Alcotest.test_case "client backoff bounds" `Quick test_backoff_bounds;
    Alcotest.test_case "submit matches batch run" `Quick test_submit_matches_batch;
    Alcotest.test_case "concurrent sessions" `Quick test_concurrent_sessions;
    Alcotest.test_case "tenants never share a store" `Quick test_tenants_never_share_a_store;
    Alcotest.test_case "BUSY reply and retry" `Quick test_busy_and_retry;
    Alcotest.test_case "refused modes" `Quick test_refused_modes;
    Alcotest.test_case "crash victim isolated" `Quick test_crash_victim_isolated;
    Alcotest.test_case "corrupt frame isolated" `Quick test_corrupt_frame_isolated;
    Alcotest.test_case "idle timeout stalls out" `Quick test_idle_timeout_stall;
    Alcotest.test_case "drop policy conserves events" `Quick test_drop_policy_conservation;
    Alcotest.test_case "SIGTERM drain salvages stragglers" `Quick test_drain_salvages_stragglers;
    Alcotest.test_case "status document" `Quick test_status_document;
  ]
