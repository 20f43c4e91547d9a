(* Shared machinery: host fit, statistics, output checks, the peeled
   interpreter stages and the metric record every workload fills. *)

module Ast = Ddp_minir.Ast
module Event = Ddp_minir.Event
module Handler = Ddp_minir.Handler
module Interp = Ddp_minir.Interp
module Config = Ddp_core.Config
module Dep_store = Ddp_core.Dep_store
module Key_set = Ddp_core.Dep_store.Key_set
module Clock = Ddp_util.Clock

(* -- host fit ------------------------------------------------------------ *)

(* Cores this process may use.  Worker domains and daemon clients are
   derived from it and never exceed it: the producer (or the daemon's
   receivers) plus W workers fit the cores. *)
let nproc = max 1 (Domain.recommended_domain_count ())
let workers = max 1 (nproc - 1)

let now = Clock.now

(* -- statistics ---------------------------------------------------------- *)

(* Linear-interpolated quantile, q in [0, 1]; nan on an empty list. *)
let quantile q l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l
let sum l = List.fold_left ( +. ) 0.0 l
let mean l = sum l /. float_of_int (List.length l)
let per_ns s n = if n <= 0 then 0.0 else s *. 1e9 /. float_of_int n

(* A field of /proc/self/status in MiB: VmHWM is the process's peak
   resident set, VmRSS its current one.  The OCaml major heap's peak when
   /proc is not there. *)
let proc_status_mb field =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = String.length field in
        let rec loop () =
          match input_line ic with
          | line when String.length line > n && String.sub line 0 n = field ->
            Scanf.sscanf (String.sub line n (String.length line - n)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
          | _ -> loop ()
        in
        loop ())
  in
  try from_proc ()
  with _ -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let max_rss_mb () = proc_status_mb "VmHWM:"

(* -- output checks ------------------------------------------------------- *)

(* Every check the run makes, counted against the number attempted; a
   failed one is printed at once and fails the command. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks = { attempted = 0; failed = 0 }

let check ok what =
  checks.attempted <- checks.attempted + 1;
  if not ok then begin
    checks.failed <- checks.failed + 1;
    Printf.printf "CHECK FAILED: %s\n%!" what
  end

let check_complete what (h : Ddp_core.Health.t) =
  check (not (Ddp_core.Health.is_partial h))
    (Printf.sprintf "%s: result is %s" what (Ddp_core.Health.to_string h))

(* False-positive and false-negative dependences against the
   perfect-signature oracle, over the dependences reported and true. *)
type accuracy = { mutable fp : int; mutable fn : int; mutable reported : int; mutable truth : int }

let new_accuracy () = { fp = 0; fn = 0; reported = 0; truth = 0 }

let add_accuracy acc ~oracle ~got =
  acc.fp <- acc.fp + Key_set.cardinal (Key_set.diff got oracle);
  acc.fn <- acc.fn + Key_set.cardinal (Key_set.diff oracle got);
  acc.reported <- acc.reported + Key_set.cardinal got;
  acc.truth <- acc.truth + Key_set.cardinal oracle

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b
let fpr_pct a = pct a.fp a.reported
let fnr_pct a = pct a.fn a.truth

(* The signature engines run with 1,048,576 slots, far more than these
   programs' addresses: a false-positive or false-negative rate above
   this bound means lost or corrupted accesses, not collisions. *)
let accuracy_bound_pct = 1.0

let check_accuracy acc what ~oracle ~got =
  let one = new_accuracy () in
  add_accuracy one ~oracle ~got;
  add_accuracy acc ~oracle ~got;
  check
    (fpr_pct one <= accuracy_bound_pct && fnr_pct one <= accuracy_bound_pct)
    (Printf.sprintf "%s: fpr %.3f%% fnr %.3f%% against the perfect oracle (bound %.1f%%)" what
       (fpr_pct one) (fnr_pct one) accuracy_bound_pct)

(* -- programs ------------------------------------------------------------ *)

(* A program instance: the generated program plus the seeds its
   interpreter runs take (rand intrinsics and task schedule). *)
type prog = { name : string; make : unit -> Ast.program; input_seed : int; sched_seed : int }

let prog ~seed ?(scale = 1) name =
  let w = Ddp_workloads.Registry.find name in
  { name; make = (fun () -> w.Ddp_workloads.Wl.seq ~scale); input_seed = seed; sched_seed = seed + 1 }

let run ?hooks p =
  Interp.run ?hooks ~input_seed:p.input_seed ~sched_seed:p.sched_seed (p.make ())

let config ~seed = { Config.default with Config.workers; seed }

(* One engine session over a live run, with byte accounting. *)
type engine_run = {
  wall : float;
  outcome : Ddp_core.Engine.outcome;
  stats : Interp.stats;
  peak_bytes : int;
}

(* Every timed run starts after a full major collection, so one run's
   garbage is not the next one's collection work. *)
let run_engine (engine : Ddp_core.Engine.t) cfg p =
  let account = Ddp_util.Mem_account.create () in
  let prog = p.make () in
  Gc.full_major ();
  let t0 = now () in
  let s = engine.Ddp_core.Engine.create ~account:(account, engine.name) cfg in
  let stats =
    Interp.run ~hooks:s.Ddp_core.Engine.hooks ~input_seed:p.input_seed ~sched_seed:p.sched_seed prog
  in
  let outcome = s.Ddp_core.Engine.finish () in
  let wall = now () -. t0 in
  { wall; outcome; stats; peak_bytes = Ddp_util.Mem_account.total_peak account }

let oracle_keys ~seed p =
  Dep_store.key_set (run_engine Ddp_core.Engines.perfect (config ~seed) p).outcome.deps

(* -- peeled interpreter stages ------------------------------------------- *)

(* Event counts seen by the counting subscriber of the handler stage. *)
type counts = { mutable events : int; mutable accesses : int; mutable syncs : int }

(* A subscriber to every event class whose callbacks only count: fused
   with Handler.fuse, it costs what handler dispatch costs. *)
let counting_handler c =
  let ev () = c.events <- c.events + 1 in
  let acc () =
    c.events <- c.events + 1;
    c.accesses <- c.accesses + 1
  in
  Handler.make
    ~memory:
      {
        Event.on_read = (fun ~addr:_ ~loc:_ ~var:_ ~thread:_ ~time:_ ~locked:_ -> acc ());
        on_write = (fun ~addr:_ ~loc:_ ~var:_ ~thread:_ ~time:_ ~locked:_ -> acc ());
      }
    ~region:
      {
        Event.on_region_enter = (fun ~loc:_ ~kind:_ ~thread:_ ~time:_ -> ev ());
        on_region_iter = (fun ~loc:_ ~thread:_ ~time:_ -> ev ());
        on_region_exit =
          (fun ~loc:_ ~end_loc:_ ~kind:_ ~iterations:_ ~thread:_ ~time:_ -> ev ());
      }
    ~frame:
      {
        Event.on_call = (fun ~loc:_ ~func:_ ~thread:_ ~time:_ -> ev ());
        on_return = (fun ~func:_ ~thread:_ ~time:_ -> ev ());
        on_thread_end = (fun ~thread:_ -> ev ());
      }
    ~alloc:{ Event.on_alloc = (fun ~base:_ ~len:_ ~var:_ -> ev ()); on_free = (fun ~base:_ ~len:_ ~var:_ -> ev ()) }
    ~sync:
      {
        Event.on_sync =
          (fun ~kind:_ ~obj:_ ~thread:_ ~time:_ ->
            ev ();
            c.syncs <- c.syncs + 1);
      }
    ()

(* A span around one whole run of a layer stage, started from a
   collected heap like every timed run. *)
let stage tr name f =
  Gc.full_major ();
  Span.time tr name f

(* Stage 0 (interpreter alone) and stage 1 (plus handler dispatch into
   the counting subscriber), each as spans, then the handler layer timed
   directly: as many calls through the fused record as stage 1 delivered
   events.  A few ns per event cannot be peeled off an interpreter run
   whose own noise is tens of ns.  The two stages run after an untimed
   warm-up run (the first run after a compaction pays to grow the heap
   again) and interleaved 0-1-1-0, and each is the mean of its two
   runs, so both see the same host speed. *)
let interp_stages tr p =
  ignore (run p : Interp.stats);
  let stage0 () = stage tr "interp" (fun () -> ignore (run p : Interp.stats)) in
  let c = { events = 0; accesses = 0; syncs = 0 } in
  let stage1 () =
    c.events <- 0;
    c.accesses <- 0;
    c.syncs <- 0;
    stage tr "interp+handler" (fun () -> ignore (run ~hooks:(Handler.fuse [ counting_handler c ]) p : Interp.stats))
  in
  let i1 = stage0 () in
  let s1 = stage1 () in
  let s2 = stage1 () in
  let i2 = stage0 () in
  let h = Handler.fuse [ counting_handler { events = 0; accesses = 0; syncs = 0 } ] in
  let loc = Ddp_minir.Loc.make ~file:1 ~line:1 in
  let t_handler =
    Span.time tr "handler" (fun () ->
        for i = 1 to c.events do
          h.Event.on_read ~addr:i ~loc ~var:0 ~thread:0 ~time:i ~locked:false
        done)
  in
  ((i1 +. i2) /. 2.0, (s1 +. s2) /. 2.0, t_handler, c)

(* How far the sum of a workload's layer costs may be from the wall it
   explains, as a share of that wall. *)
let closure_tolerance = 0.15

(* -- metrics ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* -- host speed ------------------------------------------------------------ *)

(* A shared host's speed differs from one run to the next by a fifth,
   and by more than half in slow spells that last minutes; a median over
   one run's samples cannot average that out.  So every run also times a fixed
   kernel of the benchmark's own: integer keys into a Hashtbl and read
   back, the memory-bound, allocating work the profiler's stores do.
   Across separate processes its median tracked the dag engine's on
   rgbyuv and msort-task with correlation 0.85 and 0.75.  The end-to-end
   times are reported scaled to the kernel's nominal time: measured time
   x [reference_nominal_s] / the run's kernel median.  The kernel is not
   the program, so a change to the program moves the scaled figures as
   it moves the measured ones. *)
let reference_kernel () =
  let n = 150_000 in
  let h = Hashtbl.create 16 in
  for i = 1 to n do
    Hashtbl.replace h (i * 7919) (i, i)
  done;
  let s = ref 0 in
  for _ = 1 to 2 do
    for i = 1 to n do
      match Hashtbl.find_opt h (i * 7919) with Some (v, _) -> s := !s + v | None -> ()
    done
  done;
  !s

(* Near the kernel's median on a 2-vCPU Xeon at 2.1 GHz, 0.08-0.10 s in
   most runs; any constant would do, as runs are only compared with
   runs of the same benchmark. *)
let reference_nominal_s = 0.1

(* Kernel runs per measurement, spread evenly through it. *)
let reference_reps = 16

(* -- set-up ----------------------------------------------------------------- *)

(* Set-up is a list of independent units, one per program or trace.
   Each unit is timed [setup_reps] times in a run, each time from a
   collected heap: all units once before the measurement, and the other
   runs one unit at a time between the measured passes, spread evenly
   through them (see [measure]), so they see the mix of host speed the
   measured passes see.  [setup_s] is the sum over units of each unit's
   median.  The reference kernel's runs are spread the same way. *)
let setup_reps = 3

type setup = {
  units : (unit -> unit) array;  (* one more run of a unit, its result dropped *)
  times : float list array;  (* per unit *)
  mutable extra : int;  (* unit runs made after the first set-up *)
  rss_mb : float;  (* peak resident set after the first set-up *)
  mutable reference : float list;  (* reference kernel times *)
  domains : int;  (* domains the kernel runs on at once *)
}

let timed f =
  Gc.full_major ();
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* One kernel sample: the kernel on [s.domains] domains at once, timed
   until the last one ends.  A workload that keeps several domains busy
   runs at the pace of its slowest core, and a kernel on one domain only
   sees the core it happens to run on: over ten seeds, three
   live-parallel runs measured a wall 50% above the others while a
   single-domain kernel read its usual time. *)
let run_reference s =
  let kernel () = ignore (Sys.opaque_identity (reference_kernel ())) in
  let sample () =
    let others = List.init (s.domains - 1) (fun _ -> Domain.spawn kernel) in
    kernel ();
    List.iter Domain.join others
  in
  s.reference <- snd (timed sample) :: s.reference

let timed_setup ?(domains = 1) units =
  let first = List.map timed units in
  let s =
    {
      units = Array.of_list (List.map (fun f () -> ignore (Sys.opaque_identity (f ()))) units);
      times = Array.of_list (List.map (fun (_, t) -> [ t ]) first);
      extra = 0;
      rss_mb = max_rss_mb ();
      reference = [];
      domains;
    }
  in
  run_reference s;
  (List.map fst first, s)

let setup_s s = sum (Array.to_list (Array.map median s.times))

(* Measured time x [speed_scale] is time at the kernel's nominal speed. *)
let speed_scale s = reference_nominal_s /. median s.reference

(* Run the unit and kernel runs due once [frac] of the measured time has
   passed. *)
let setup_due s frac =
  let due total = if frac >= 1.0 then total else int_of_float (frac *. float_of_int total) in
  let n = Array.length s.units in
  while s.extra < due ((setup_reps - 1) * n) do
    let u = s.extra mod n in
    s.times.(u) <- snd (timed s.units.(u)) :: s.times.(u);
    s.extra <- s.extra + 1
  done;
  while List.length s.reference < 1 + due (reference_reps - 1) do
    run_reference s
  done

(* Repeat [pass] until [seconds] of passes have elapsed, at least once.
   Each pass starts from a compacted heap, so one pass's garbage is not
   the next one's collection work.  The set-up unit runs of [setup] go
   between passes and do not count towards [seconds]. *)
let measure ?setup ~seconds pass =
  let measured = ref 0.0 and n = ref 0 in
  while !n = 0 || !measured < seconds do
    Gc.compact ();
    let t0 = now () in
    pass !n;
    measured := !measured +. (now () -. t0);
    incr n;
    Option.iter (fun s -> setup_due s (!measured /. seconds)) setup
  done

(* The end-to-end metrics every workload reports.  A request is one
   pass over every program (in-process workloads: the batch a user
   profiles) or one daemon session; a session is one program profiled or
   one daemon session.  Every time is built from medians or percentiles
   of the run's samples, never from their mean: on a shared host a few
   samples land in a slow spell, and they pull a mean but not a median. *)
type e2e = {
  setup : setup;
  wall_s : float;  (* median seconds per pass over every program, or per daemon round *)
  overhead_ns : float;  (* profiler cost per access *)
  p50 : float;  (* request latency percentiles *)
  p75 : float;
  samples : int;  (* the samples the percentiles are taken over *)
  sessions_per_s : float;
  peak_bytes : int;
  rss_mb : float;  (* peak resident set: the process's, or on the daemon the median round's *)
}

let e2e_metrics e =
  let mb b = float_of_int b /. 1048576.0 in
  let k = speed_scale e.setup in
  Printf.printf
    "host speed: reference kernel median %.4f s over %d runs; times below are measured x %.4f \
     (measured: setup %.4f s, wall %.4f s, p50 %.4f s, p75 %.4f s)\n%!"
    (median e.setup.reference) (List.length e.setup.reference) k (setup_s e.setup) e.wall_s e.p50 e.p75;
  Printf.printf "latency percentiles over %d samples (runs of each program, or daemon sessions)\n%!" e.samples;
  (* Set-up runs the perfect oracle: say whether it, rather than the
     profiled runs, set the process's peak. *)
  Printf.printf "max_rss_mb: %.1f after the first set-up, %.1f at the end\n%!" e.setup.rss_mb (max_rss_mb ());
  [
    m "setup_s" "s" (k *. setup_s e.setup);
    m "wall_s" "s" (k *. e.wall_s);
    m "overhead_ns_per_access" "ns" (k *. e.overhead_ns);
    m "latency_p50_s" "s" (k *. e.p50);
    m "latency_p75_s" "s" (k *. e.p75);
    m "sessions_per_s" "1/s" (e.sessions_per_s /. k);
    m "peak_mb" "MiB" (mb e.peak_bytes);
    m "max_rss_mb" "MiB" e.rss_mb;
  ]

(* The in-process workloads' measurement: every program once per round,
   each profiled run preceded by an interpreter-only run of the same
   program, until [seconds] have passed; [check] sees every profiled run.
   A pass holds runs of 20 ms and of 2 s, and a run has only some ten
   passes: too few for percentiles of the pass wall itself.  So each
   program's runs give its own median and 75th percentile, and a pass's
   figure is the sum over programs: the wall, its percentiles and the
   overhead.  (A 90th percentile of 8-11 runs with a heavy tail spread
   0.25-0.37 of its median over ten live-parallel seeds.) *)
let profile_programs ~seconds ~setup engine cfg progs ~check =
  let samples = List.map (fun _ -> ref []) progs in
  let passes = ref 0 in
  measure ~setup ~seconds (fun round ->
         List.iter2
           (fun (p, oracle) l ->
             Gc.full_major ();
             let t0 = now () in
             ignore (run p : Interp.stats);
             let native = now () -. t0 in
             let r = run_engine engine cfg p in
             check round p oracle r;
             l := (native, r.wall, r.stats.Interp.accesses, r.peak_bytes) :: !l)
           progs samples;
         incr passes);
  let per q f = sum (List.map (fun l -> quantile q (List.map f !l)) samples) in
  List.iter2
    (fun ((p : prog), _) l ->
      Printf.printf "  %-18s %3d runs: interpreter %.4f s, profiled %.4f s (medians)\n" p.name (List.length !l)
        (median (List.map (fun (n, _, _, _) -> n) !l))
        (median (List.map (fun (_, w, _, _) -> w) !l));
      Printf.printf "    samples %s: profiled %s; interpreter %s\n" p.name
        (String.concat " " (List.rev_map (fun (_, w, _, _) -> Printf.sprintf "%.4f" w) !l))
        (String.concat " " (List.rev_map (fun (n, _, _, _) -> Printf.sprintf "%.4f" n) !l)))
    progs samples;
  let all = List.concat_map ( ! ) samples in
  let wall_s = per 0.5 (fun (_, w, _, _) -> w) in
  let native = per 0.5 (fun (n, _, _, _) -> n) in
  let accesses = List.fold_left (fun a l -> match !l with (_, _, n, _) :: _ -> a + n | [] -> a) 0 samples in
  {
    setup;
    wall_s;
    overhead_ns = per_ns (wall_s -. native) accesses;
    p50 = wall_s;
    p75 = per 0.75 (fun (_, w, _, _) -> w);
    samples = !passes;
    sessions_per_s = float_of_int (List.length progs) /. wall_s;
    peak_bytes = List.fold_left (fun a (_, _, _, b) -> max a b) 0 all;
    rss_mb = max_rss_mb ();
  }
