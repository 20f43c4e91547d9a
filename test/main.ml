(* Test entry point: all suites.  `dune runtest` runs everything;
   ALCOTEST_QUICK_ONLY=1 skips the slow integration cases.
   DDP_SEED=<n> seeds every randomized property (the seed is stamped
   into each QCheck test's name — see test_seed.ml). *)

(* Child mode for the Tmp_file signal-hygiene test (test_util.ml):
   OCaml 5 forbids [Unix.fork] once any domain has run, so the test
   re-execs this very binary with DDP_TMPFILE_CHILD set.  The child
   arms the sweeper, opens a pending file and parks until SIGTERM
   (whose handler exits 143 after deleting the temp file). *)
let () =
  match Sys.getenv_opt "DDP_TMPFILE_CHILD" with
  | None -> ()
  | Some path ->
    Ddp_util.Tmp_file.install_signal_cleanup ();
    let t = Ddp_util.Tmp_file.create ~path in
    output_string (Ddp_util.Tmp_file.oc t) "half-written";
    flush (Ddp_util.Tmp_file.oc t);
    while true do
      Unix.sleepf 0.05
    done

(* Child mode for the first-parallel-session regression
   (test_parallel.ml): state a parallel run initialises once per process
   is only fresh in a fresh process. *)
let () =
  match Sys.getenv_opt "DDP_FIRST_PARALLEL_CHILD" with
  | None -> ()
  | Some _ -> exit (Test_parallel.first_parallel_session ())

let () =
  Printf.printf "randomized suites seeded with DDP_SEED=%d\n%!" Test_seed.seed;
  Alcotest.run "ddp"
    [
      ("util", Test_util.suite);
      ("value", Test_value.suite);
      ("memory", Test_memory.suite);
      ("loc-payload", Test_loc_payload.suite);
      ("interp", Test_interp.suite);
      ("sig-store", Test_sig_store.suite);
      ("algo", Test_algo.suite);
      ("dep-store", Test_dep_store.suite);
      ("region", Test_region.suite);
      ("chunk", Test_chunk.suite);
      ("queues", Test_queues.suite);
      ("dispatch", Test_dispatch.suite);
      ("parallel", Test_parallel.suite);
      ("supervision", Test_supervision.suite);
      ("mt", Test_mt.suite);
      ("accuracy", Test_accuracy.suite);
      ("report", Test_report.suite);
      ("profiler", Test_profiler.suite);
      ("engine", Test_engine.suite);
      ("baselines", Test_baselines.suite);
      ("analyses", Test_analyses.suite);
      ("framework", Test_framework.suite);
      ("procs", Test_procs.suite);
      ("random-programs", Test_random_programs.suite);
      ("event", Test_event.suite);
      ("trace-file", Test_trace_file.suite);
      ("foreign", Test_foreign.suite);
      ("testkit", Test_testkit.suite);
      ("obs", Test_obs.suite);
      ("workloads", Test_workloads.suite);
      ("static", Test_static.suite);
      ("dag", Test_dag.suite);
      ("daemon", Test_daemon.suite);
    ]
