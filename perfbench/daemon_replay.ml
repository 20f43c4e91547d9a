(* daemon-replay: an in-process ddpd serving closed-loop clients.

   Traces are recorded once during set-up; each client submits its next
   trace only after the previous REPORT arrived.  Sessions run mode
   "serial": the same signature engine as live-parallel, fed by the
   Trace_file decoder and shared among tenants instead of by a live
   run.  The interpreter is bypassed entirely. *)

open Common
module Trace_file = Ddp_minir.Trace_file
module Symtab = Ddp_minir.Symtab
module Client = Ddp_daemon.Client
module Server = Ddp_daemon.Server
module Wire = Ddp_daemon.Wire
module Json = Ddp_obs.Json

(* The served traffic: task-program traces of similar size (56k-63k
   accesses), so session latencies form one mode and their percentiles
   are steady.  The trace codec's per-event cost dominates their
   latency.  md5 from live-parallel (1.02M accesses) would let the
   signature engine's per-event cost show too, but only five rounds of
   it fit in a 30 s run, and its latencies spread twice as wide: it
   joins the traced ledger only ([ledger_programs]). *)
let programs = [ ("msort-task", 4); ("msort-task-racy", 4); ("scan-task", 32); ("scan-task-racy", 40) ]

let ledger_programs = programs @ [ ("md5", 1) ]

(* Closed-loop clients: one per pool worker (nproc - 1).  Two clients on
   two cores (one worker) settled for tens of seconds into one of two
   phases, one where the main domain and the worker overlapped and one
   where they took turns, a third slower: whole runs differed by that
   much. *)
let clients = max 1 (nproc - 1)

type trace = {
  tname : string;
  events : Event.t list;
  symtab : Symtab.t;
  accesses : int;
  batch : Key_set.t;  (* keys of a batch serial replay of the trace *)
  oracle : Key_set.t;  (* perfect-signature keys of the trace *)
  peak : int;  (* accounted peak bytes of the batch serial session *)
}

let replay (engine : Ddp_core.Engine.t) ?account events =
  let s = engine.Ddp_core.Engine.create ?account (config ~seed:1) in
  Event.replay s.Ddp_core.Engine.hooks events;
  s.Ddp_core.Engine.finish ()

(* Set-up units: each trace recorded, with its batch serial replay and
   its perfect-oracle key set. *)
let setup ~seed programs =
  List.map
    (fun (name, scale) () ->
      let p = prog ~seed ~scale name in
      let symtab = Symtab.create () in
      let events, stats =
        Interp.trace ~input_seed:p.input_seed ~sched_seed:p.sched_seed ~symtab (p.make ())
      in
      let account = Ddp_util.Mem_account.create () in
      let batch = replay Ddp_core.Engines.serial ~account:(account, "serial") events in
      check_complete ("daemon-replay batch " ^ name) batch.health;
      {
        tname = name;
        events;
        symtab;
        accesses = stats.Interp.accesses;
        batch = Dep_store.key_set batch.deps;
        oracle = Dep_store.key_set (replay Ddp_core.Engines.perfect events).deps;
        peak = Ddp_util.Mem_account.total_peak account;
      })
    programs

(* The daemon, in this process: its default configuration with W pool
   workers, its socket inside the working directory. *)
let with_daemon f =
  let dir = "_perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let socket_path = Printf.sprintf "%s/ddpd-%d.sock" dir (Unix.getpid ()) in
  let d =
    Server.start { (Server.default_config ~socket_path) with Server.workers }
  in
  Fun.protect ~finally:(fun () -> Server.stop d) (fun () -> f d socket_path)

(* A served session, its REPORT already checked (reports are large:
   none is kept), and the process's resident set when it ended. *)
type session = { tr : trace; t0 : float; t1 : float; elapsed : float (* the tenant's own time *); rss_mb : float }

(* Client threads check their REPORTs as they arrive, under [mu]. *)
let mu = Mutex.create ()
let acc = new_accuracy ()

(* REPORT checks: Complete, keys equal the batch run's, and accuracy
   against the perfect oracle. *)
let check_report tr (r : Client.report) =
  Mutex.protect mu (fun () ->
      let keys = Client.dep_key_set r in
      check r.Client.complete (Printf.sprintf "daemon-replay %s: REPORT is Partial" tr.tname);
      check (Key_set.equal keys tr.batch)
        (Printf.sprintf "daemon-replay %s: REPORT keys differ from the batch serial run" tr.tname);
      check_accuracy acc ("daemon-replay " ^ tr.tname) ~oracle:tr.oracle ~got:keys)

let submit ~socket ~seed tr =
  match
    Client.submit ~seed ~socket ~name:tr.tname ~mode:"serial" ~events:tr.events ~symtab:tr.symtab ()
  with
  | Ok r -> Some r
  | Error e ->
    Mutex.protect mu (fun () ->
        check false (Printf.sprintf "daemon-replay %s: %s" tr.tname (Client.error_to_string e)));
    None

(* One round of the closed loop: [clients] threads, each submitting
   every trace once (each starting at a different one), the next only
   after the last REPORT arrived. *)
let round ~socket ~seed traces =
  let n = Array.length traces in
  let per_client = Array.make clients [] in
  let body c =
    for k = 0 to n - 1 do
      let tr = traces.((c + k) mod n) in
      let t0 = now () in
      match submit ~socket ~seed:(seed + c) tr with
      | Some r ->
        let t1 = now () in
        check_report tr r;
        per_client.(c) <- { tr; t0; t1; elapsed = r.Client.elapsed; rss_mb = proc_status_mb "VmRSS:" } :: per_client.(c)
      | None -> ()
    done
  in
  List.iter Thread.join (List.init clients (Thread.create body));
  List.concat (Array.to_list per_client)

(* Rounds until [seconds] have passed: the round walls, every session,
   and each round's peak resident set as its sessions ended. *)
let closed_loop ?setup ~socket ~seed ~seconds traces =
  let traces = Array.of_list traces in
  let walls = ref [] and sessions = ref [] and peaks = ref [] in
  measure ?setup ~seconds (fun _ ->
         let t0 = now () in
         let s = round ~socket ~seed traces in
         walls := (now () -. t0) :: !walls;
         peaks := List.fold_left (fun a x -> max a x.rss_mb) 0.0 s :: !peaks;
         sessions := s @ !sessions);
  (!walls, !sessions, !peaks)

let e2e ~seed ~seconds =
  let traces, setup = timed_setup (setup ~seed programs) in
  with_daemon (fun _ socket ->
      let rounds, sessions, peaks = closed_loop ~setup ~socket ~seed ~seconds traces in
      Printf.printf
        "daemon-replay: W=%d, %d clients, %d sessions in %d rounds; fpr %.4f%% fnr %.4f%%\n%!"
        workers clients (List.length sessions) (List.length rounds) (fpr_pct acc) (fnr_pct acc);
      let latencies = List.map (fun s -> s.t1 -. s.t0) sessions in
      let wall_s = median rounds in
      e2e_metrics
        {
          setup;
          wall_s;
          overhead_ns = median (List.map (fun s -> per_ns (s.t1 -. s.t0) s.tr.accesses) sessions);
          (* The traces' latencies form two groups some 0.1 s apart
             (msort's and scan's), and the median of all sessions falls
             in the gap between them: the median is taken per trace and
             averaged over the traces instead. *)
          p50 =
            mean
              (List.map
                 (fun t -> median (List.filter_map (fun s -> if s.tr == t then Some (s.t1 -. s.t0) else None) sessions))
                 traces);
          p75 = quantile 0.75 latencies;
          samples = List.length latencies;
          sessions_per_s = float_of_int (clients * List.length traces) /. wall_s;
          peak_bytes = List.fold_left (fun a t -> max a t.peak) 0 traces;
          (* The process's peak resident set depends on when the major
             collector frees the sessions' 16 MiB signatures: over ten
             seeds it spread 0.24-0.26 of its median.  A round's peak, sampled
             as each session ends, is taken per round instead, and the
             median over rounds reported. *)
          rss_mb = median peaks;
        })

(* -- traced ------------------------------------------------------------------ *)

let data_chunk = 65536

(* The wire layer alone: the session's frames over a socket pair, read
   back frame by frame on another thread. *)
let wire_roundtrip bytes =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frames = ref 0 in
  let reader =
    Thread.create
      (fun () ->
        let rec loop () =
          match Wire.read_frame b with
          | Some (Wire.Fin, _) | None -> ()
          | Some _ ->
            incr frames;
            loop ()
        in
        loop ())
      ()
  in
  Wire.write_frame a Wire.Hello (Wire.kv_encode [ ("name", "bench"); ("mode", "serial") ]);
  let len = String.length bytes in
  let off = ref 0 in
  while !off < len do
    let n = min data_chunk (len - !off) in
    Wire.write_frame a Wire.Data (String.sub bytes !off n);
    off := !off + n
  done;
  Wire.write_frame a Wire.Fin "";
  Thread.join reader;
  Unix.close a;
  Unix.close b;
  (* request frames plus FIN, and the ADMIT and REPORT replies *)
  !frames + 1 + 2

type ledger = {
  mutable encode : float;
  mutable wire : float;
  mutable decode : float;
  mutable engine : float;
  mutable report : float;
  mutable events : int;
  mutable accesses : int;
  mutable bytes : int;
  mutable frames : int;
  mutable sessions : int;
  mutable submit : float;  (* measured submit -> REPORT *)
  mutable overwrites : int;
  mutable occupied : int;
  mutable slots : int;
}

let traced ~seed ~seconds =
  let traces = List.map (fun f -> f ()) (setup ~seed ledger_programs) in
  let tr = Span.create () in
  with_daemon (fun d socket ->
      let single t = match submit ~socket ~seed t with Some r -> r | None -> raise Exit in
      let untraced =
        sum
          (List.map
             (fun t ->
               let t0 = now () in
               ignore (single t : Client.report);
               now () -. t0)
             traces)
      in
      let ledgers = ref [] and traced_walls = ref [] in
      measure ~seconds:(seconds *. 2.0 /. 3.0) (fun _ ->
             let l =
               {
                 encode = 0.; wire = 0.; decode = 0.; engine = 0.; report = 0.; events = 0; accesses = 0;
                 bytes = 0; frames = 0; sessions = 0; submit = 0.; overwrites = 0; occupied = 0; slots = 0;
               }
             in
             let (), wall =
               Span.with_ tr "pass" (fun () ->
                   List.iter
                     (fun t ->
                       (* submitted before and after the layers are
                          timed, so the latency the layers explain sees the
                          same mix of host speed as they do *)
                       let submit () =
                         let report, dt = Span.with_ tr "client.submit" (fun () -> single t) in
                         check_report t report;
                         (report, dt)
                       in
                       let report, t_submit1 = submit () in
                       let buf = Buffer.create 65536 in
                       let t_enc = Span.time tr "trace_file.encode" (fun () -> Trace_file.to_buffer buf t.events t.symtab) in
                       let bytes = Buffer.contents buf in
                       let frames, t_wire = Span.with_ tr "wire" (fun () -> wire_roundtrip bytes) in
                       (* decoded as a tenant decodes: fed frame by frame,
                          drained after each; the events are counted and
                          dropped, as the tenant hands them on at once *)
                       let decoded, t_dec =
                         Span.with_ tr "trace_file.decode" (fun () ->
                             let st = Trace_file.Stream.create () and n = ref 0 in
                             let rec drain () =
                               match Trace_file.Stream.next st with
                               | Trace_file.Stream.Event _ ->
                                 incr n;
                                 drain ()
                               | Trace_file.Stream.Need_more | Trace_file.Stream.Done -> ()
                             in
                             let len = String.length bytes in
                             let off = ref 0 in
                             while !off < len do
                               let k = min data_chunk (len - !off) in
                               Trace_file.Stream.feed st (String.sub bytes !off k);
                               drain ();
                               off := !off + k
                             done;
                             Trace_file.Stream.eof st;
                             drain ();
                             !n)
                       in
                       check (decoded = List.length t.events)
                         (Printf.sprintf "daemon-replay %s: decoded %d of %d events" t.tname decoded
                            (List.length t.events));
                       let t_eng =
                         Span.time tr "sig_store" (fun () ->
                             check_complete ("daemon-replay traced " ^ t.tname)
                               (replay Ddp_core.Engines.serial t.events).health)
                       in
                       (* the REPORT document, written by the tenant and
                          parsed by the client *)
                       let t_report =
                         Span.time tr "report.json" (fun () ->
                             ignore (Json.parse (Json.to_string report.Client.raw) : Json.t))
                       in
                       let _, _, _, (ow, occ, slots) =
                         Live_parallel.sig_stage (Span.create ()) { (config ~seed) with Config.workers = 1 }
                           (fun hooks -> Event.replay hooks t.events)
                       in
                       l.encode <- l.encode +. t_enc;
                       l.wire <- l.wire +. t_wire;
                       l.decode <- l.decode +. t_dec;
                       l.engine <- l.engine +. t_eng;
                       l.report <- l.report +. t_report;
                       l.events <- l.events + decoded;
                       l.accesses <- l.accesses + t.accesses;
                       l.bytes <- l.bytes + String.length bytes;
                       l.frames <- l.frames + frames;
                       l.sessions <- l.sessions + 1;
                       let _, t_submit2 = submit () in
                       l.submit <- l.submit +. ((t_submit1 +. t_submit2) /. 2.0);
                       l.overwrites <- l.overwrites + ow;
                       l.occupied <- l.occupied + occ;
                       l.slots <- l.slots + slots)
                     traces)
             in
             traced_walls := wall :: !traced_walls;
             ledgers := l :: !ledgers);
      (* Under load: the closed loop again, each session's client wait
         split into the tenant's own session time and the rest. *)
      let (_, sessions, _), _ =
        Span.with_ tr "closed_loop" (fun () -> closed_loop ~socket ~seed ~seconds:(seconds /. 3.0) traces)
      in
      let rejected =
        match Json.member "admission" (Server.status_json d) with
        | Some a -> Option.value (Option.bind (Json.member "rejected_total" a) Json.to_int) ~default:0
        | None -> 0
      in
      let med f = median (List.map f !ledgers) in
      (* Closure: the measured submit -> REPORT time of every pass's
         sessions against the sum of the reported layer costs times their
         counts: encode and decode per event, the wire at its rate, the
         engine per access, the REPORT document per session.  Pooled over
         the passes: a pass holds few sessions, one of them md5. *)
      let total f = sum (List.map f !ledgers) in
      let residual =
        let submit = total (fun l -> l.submit) in
        (submit -. total (fun l -> l.encode +. l.wire +. l.decode +. l.engine +. l.report)) /. submit
      in
      Printf.printf
        "daemon-replay ledger: closure residual %+.1f%% of the submit latency (tolerance %.0f%%)\n%!"
        (100.0 *. residual) (100.0 *. closure_tolerance);
      check (Float.abs residual <= closure_tolerance)
        (Printf.sprintf "daemon-replay: layers leave %.1f%% of a session unaccounted" (100.0 *. residual));
      let session_s = List.map (fun s -> s.elapsed) sessions in
      ( tr,
        [
          m "sig_store.ns_per_access" "ns" (med (fun l -> per_ns l.engine l.accesses));
          m "sig_store.overwrite_ratio" "ratio"
            (med (fun l -> float_of_int l.overwrites /. float_of_int (max 1 l.accesses)));
          m "sig_store.occupancy" "ratio" (med (fun l -> float_of_int l.occupied /. float_of_int (max 1 l.slots)));
          m "trace_file.encode_ns_per_event" "ns" (med (fun l -> per_ns l.encode l.events));
          m "trace_file.decode_ns_per_event" "ns" (med (fun l -> per_ns l.decode l.events));
          m "trace_file.bytes_per_event" "B" (med (fun l -> float_of_int l.bytes /. float_of_int l.events));
          m "wire.mb_per_s" "MiB/s" (med (fun l -> float_of_int l.bytes /. 1048576.0 /. l.wire));
          m "wire.frames_per_session" "count" (med (fun l -> float_of_int l.frames /. float_of_int l.sessions));
          m "report.ms_per_session" "ms" (med (fun l -> l.report *. 1e3 /. float_of_int l.sessions));
          m "admission.busy_replies" "count" (float_of_int rejected);
          m "tenant.session_s" "s" (median session_s);
          m "client.wait_s" "s" (median (List.map (fun s -> s.t1 -. s.t0 -. s.elapsed) sessions));
          m "fpr_pct" "%" (fpr_pct acc);
          m "fnr_pct" "%" (fnr_pct acc);
          m "closure.residual" "ratio" residual;
          m "trace.cost_s" "s" (median !traced_walls -. untraced);
        ] ))
