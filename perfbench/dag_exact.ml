(* dag-exact: the exact SP-DAG engine on fork-join task programs.

   msort-task at scale 8 (where the interpreter's task scheduler already
   costs more than linear), fib-task and scan-task with their -racy
   twins, and sequential rgbyuv (the perfect store over 360k streaming
   addresses).  Exact and task-parallel: its time goes to the
   interpreter's scheduler, the DAG labels and the perfect store, none
   to signatures, chunks or queues. *)

open Common
module Dag = Ddp_core.Dag
module Algo = Ddp_core.Algo
module Perfect_sig = Ddp_core.Perfect_sig
module Payload = Ddp_core.Payload

let programs =
  [
    ("msort-task", 8);
    ("msort-task-racy", 8);
    ("fib-task", 5);
    ("fib-task-racy", 5);
    ("scan-task", 32);
    ("scan-task-racy", 32);
    ("rgbyuv", 1);
  ]

(* Must the dag engine flag a race?  The task family's @race/@norace
   ground truth; rgbyuv is sequential, so never. *)
let expect_race name =
  Option.value (List.assoc_opt name Ddp_workloads.Tasks.ground_truth) ~default:false

(* Set-up units: each program with its perfect-oracle key set. *)
let setup ~seed =
  List.map (fun (n, scale) () -> let p = prog ~seed ~scale n in (p, oracle_keys ~seed p)) programs

(* Output checks for one dag run: dependence keys equal the perfect
   store's, race flags match the ground truth, the result is Complete. *)
let check_run (p : prog) oracle (r : engine_run) =
  let deps = r.outcome.Ddp_core.Engine.deps in
  check_complete ("dag-exact " ^ p.name) r.outcome.health;
  check (Key_set.equal (Dep_store.key_set_no_race deps) oracle)
    (Printf.sprintf "dag-exact %s: dependence keys differ from the perfect store's" p.name);
  let raced = Dep_store.fold deps (fun k _ acc -> acc || k.Ddp_core.Dep.race) false in
  check (raced = expect_race p.name)
    (Printf.sprintf "dag-exact %s: race flagged = %b, ground truth %b" p.name raced (expect_race p.name))

let e2e ~seed ~seconds =
  let progs, setup = timed_setup (setup ~seed) in
  let e =
    profile_programs ~seconds ~setup Ddp_core.Engines.dag (config ~seed) progs
      ~check:(fun _ p oracle r -> check_run p oracle r)
  in
  Printf.printf "dag-exact: %d passes of %d programs\n%!" e.samples (List.length progs);
  e2e_metrics e

(* -- traced ------------------------------------------------------------------ *)

(* Stage 2: the DAG layer alone — spawn/join labels and a strand stamp
   per access.  [syncs] collects the spawn/join events, newest first,
   for the direct span that replays them. *)
let dag_hooks ?(syncs = ref []) sp =
  let sink = ref 0 in
  Handler.hooks
    (Handler.make
       ~memory:
         {
           Event.on_read = (fun ~addr:_ ~loc:_ ~var:_ ~thread ~time:_ ~locked:_ -> sink := !sink + Dag.stamp sp ~thread);
           on_write = (fun ~addr:_ ~loc:_ ~var:_ ~thread ~time:_ ~locked:_ -> sink := !sink + Dag.stamp sp ~thread);
         }
       ~sync:
         {
           Event.on_sync =
             (fun ~kind ~obj ~thread ~time:_ ->
               match kind with
               | Event.Task_spawn ->
                 syncs := (true, thread, obj) :: !syncs;
                 Dag.on_spawn sp ~parent:thread ~child:obj
               | Event.Task_join ->
                 syncs := (false, thread, obj) :: !syncs;
                 Dag.on_join sp ~parent:thread ~child:obj
               | Event.Lock_acquire | Event.Lock_release -> ());
         }
       ())

(* Stage 3: the dag engine's composition rebuilt from the public layers
   (Dag + Perfect_sig + Algorithm 1 + Dep_store), counting the precedes
   queries it makes and keeping a bounded prefix of them for the direct
   precedes span.  Stage 4 adds the engine's byte accounting
   ([account]). *)
let keep_pairs = 1 lsl 18

let full_hooks ?account (cfg : Config.t) sp =
  let deps = Dep_store.create ?account () and regions = Ddp_core.Region.create () in
  let store_account = Option.map (fun (a, _) -> (a, "dag-store")) account in
  let reads = Perfect_sig.create ?account:store_account () in
  let writes = Perfect_sig.create ?account:store_account () in
  let pairs = Array.make (2 * keep_pairs) 0 and kept = ref 0 and calls = ref 0 in
  let precedes a b =
    incr calls;
    if !kept < keep_pairs then begin
      pairs.(2 * !kept) <- a;
      pairs.((2 * !kept) + 1) <- b;
      incr kept
    end;
    Dag.precedes sp a b
  in
  let race_of ~src_time ~sink_time =
    let both_locked = src_time land 1 = 1 && sink_time land 1 = 1 in
    let src = src_time lsr 1 and sink = sink_time lsr 1 in
    (not both_locked) && (not (precedes src sink)) && not (precedes sink src)
  in
  let algo =
    Algo.Over_perfect.create ~track_init:cfg.Config.track_init
      ~war_requires_prior_write:cfg.war_requires_prior_write ~race_of ~reads ~writes ~deps ()
  in
  let time_of ~thread ~locked = (Dag.stamp sp ~thread * 2) + Bool.to_int locked in
  let base = Event.sync_of (dag_hooks sp) in
  let hooks =
    Handler.hooks
      (Handler.make
         ~memory:
           {
             Event.on_read =
               (fun ~addr ~loc ~var ~thread ~time:_ ~locked ->
                 Algo.Over_perfect.on_read algo ~addr ~payload:(Payload.pack_unsafe ~loc ~var ~thread)
                   ~time:(time_of ~thread ~locked));
             on_write =
               (fun ~addr ~loc ~var ~thread ~time:_ ~locked ->
                 Algo.Over_perfect.on_write algo ~addr ~payload:(Payload.pack_unsafe ~loc ~var ~thread)
                   ~time:(time_of ~thread ~locked));
           }
         ~region:(Ddp_core.Serial_profiler.region_handler regions)
         ~alloc:
           {
             Event.on_alloc = (fun ~base:_ ~len:_ ~var:_ -> ());
             on_free =
               (fun ~base ~len ~var:_ ->
                 for a = base to base + len - 1 do
                   Algo.Over_perfect.on_free algo ~addr:a
                 done);
           }
         ~sync:base ())
  in
  (hooks, fun () -> (Array.sub pairs 0 (2 * !kept), !calls))

type ledger = {
  mutable interp : float;
  mutable handler : float;
  mutable stamp : float;  (* the dag stage less its spawn/join events *)
  mutable sync : float;  (* direct: the spawn/join events replayed *)
  mutable perfect : float;  (* less the precedes queries made in it *)
  mutable account : float;
  mutable precedes : float;  (* direct span over the kept pairs *)
  mutable kept : int;
  mutable queries : float;  (* the perfect stage's precedes queries, at the direct rate *)
  mutable engine : float;  (* real dag engine, untraced, same pass *)
  mutable accesses : int;
  mutable events : int;
  mutable syncs : int;
  mutable strands : int;
}

let traced ~seed ~seconds =
  let progs = List.map (fun f -> f ()) (setup ~seed) in
  let cfg = config ~seed in
  let untraced = sum (List.map (fun (p, _) -> (run_engine Ddp_core.Engines.dag cfg p).wall) progs) in
  let tr = Span.create () in
  let ledgers = ref [] and traced_walls = ref [] in
  measure ~seconds (fun _ ->
         let l =
           {
             interp = 0.; handler = 0.; stamp = 0.; sync = 0.; perfect = 0.; account = 0.; precedes = 0.;
             kept = 0; queries = 0.; engine = 0.; accesses = 0; events = 0; syncs = 0; strands = 0;
           }
         in
         let (), wall =
           Span.with_ tr "pass" (fun () ->
               List.iter
                 (fun ((p : prog), oracle) ->
                   ignore
                     (Span.time tr ("program:" ^ p.name) (fun () ->
                          let t_interp, t_stage1, t_handler, c = interp_stages tr p in
                          let syncs = ref [] in
                          let t_dag =
                            stage tr "dag" (fun () -> ignore (run ~hooks:(dag_hooks ~syncs (Dag.create ())) p : Interp.stats))
                          in
                          let syncs = List.rev !syncs in
                          let t_sync =
                            Span.time tr "dag.sync" (fun () ->
                                let d = Dag.create () in
                                List.iter
                                  (fun (spawn, parent, child) ->
                                    if spawn then Dag.on_spawn d ~parent ~child else Dag.on_join d ~parent ~child)
                                  syncs)
                          in
                          let sp = Dag.create () in
                          let hooks, pairs = full_hooks cfg sp in
                          let t_full = stage tr "perfect_sig" (fun () -> ignore (run ~hooks p : Interp.stats)) in
                          let pairs, calls = pairs () in
                          let top () =
                            let account = (Ddp_util.Mem_account.create (), "dag") in
                            let hooks, _ = full_hooks ~account cfg (Dag.create ()) in
                            stage tr "mem_account" (fun () -> ignore (run ~hooks p : Interp.stats))
                          in
                          (* The top stage and the real engine, interleaved
                             top-engine-engine-top so both see the same mix
                             of host speed. *)
                          let t_top1 = top () in
                          let engine () = fst (Span.with_ tr "engine" (fun () -> run_engine Ddp_core.Engines.dag cfg p)) in
                          let e1 = engine () in
                          let e2 = engine () in
                          let t_acct = (t_top1 +. top ()) /. 2.0 in
                          check_run p oracle e1;
                          check_run p oracle e2;
                          let t_prec =
                            Span.time tr "dag.precedes" (fun () ->
                                let n = Array.length pairs / 2 and hits = ref 0 in
                                for i = 0 to n - 1 do
                                  if Dag.precedes sp pairs.(2 * i) pairs.((2 * i) + 1) then incr hits
                                done)
                          in
                          l.interp <- l.interp +. t_interp;
                          l.handler <- l.handler +. t_handler;
                          (* precedes queries cost the same in the perfect
                             stage as in the direct span: booked there, not
                             here *)
                          let kept = Array.length pairs / 2 in
                          let t_queries =
                            if kept = 0 then 0.0 else t_prec *. float_of_int calls /. float_of_int kept
                          in
                          l.stamp <- l.stamp +. (t_dag -. t_stage1 -. t_sync);
                          l.sync <- l.sync +. t_sync;
                          l.perfect <- l.perfect +. (t_full -. t_dag -. t_queries);
                          l.account <- l.account +. (t_acct -. t_full);
                          l.precedes <- l.precedes +. t_prec;
                          l.kept <- l.kept + kept;
                          l.queries <- l.queries +. t_queries;
                          l.engine <- l.engine +. ((e1.wall +. e2.wall) /. 2.0);
                          l.accesses <- l.accesses + c.accesses;
                          l.events <- l.events + c.events;
                          l.syncs <- l.syncs + c.syncs;
                          l.strands <- l.strands + Dag.strands sp)))
                 progs)
         in
         traced_walls := wall :: !traced_walls;
         ledgers := l :: !ledgers);
  let med f = median (List.map f !ledgers) in
  (* Closure: the real engine's wall against the sum of every reported
     layer cost times its count — interp and stamps per access, handler
     per event, dag per spawn/join event, precedes per query, perfect
     store and byte accounting per access.  A layer the metrics miss, or
     one counted twice, shows as a residual. *)
  let layers l = l.interp +. l.handler +. l.stamp +. l.sync +. l.queries +. l.perfect +. l.account in
  let residual = med (fun l -> (l.engine -. layers l) /. l.engine) in
  Printf.printf "dag-exact ledger: closure residual %+.1f%% of the engine wall (tolerance %.0f%%)\n%!"
    (100.0 *. residual) (100.0 *. closure_tolerance);
  check (Float.abs residual <= closure_tolerance)
    (Printf.sprintf "dag-exact: layers leave %.1f%% of the engine wall unaccounted" (100.0 *. residual));
  ( tr,
    [
      m "interp.ns_per_access" "ns" (med (fun l -> per_ns l.interp l.accesses));
      m "handler.ns_per_event" "ns" (med (fun l -> per_ns l.handler l.events));
      m "perfect_sig.ns_per_access" "ns" (med (fun l -> per_ns l.perfect l.accesses));
      m "mem_account.ns_per_access" "ns" (med (fun l -> per_ns l.account l.accesses));
      m "dag.ns_per_access" "ns" (med (fun l -> per_ns l.stamp l.accesses));
      m "dag.ns_per_sync_event" "ns" (med (fun l -> per_ns l.sync l.syncs));
      m "dag.ns_per_precedes" "ns" (med (fun l -> per_ns l.precedes l.kept));
      m "dag.strands" "count" (med (fun l -> float_of_int l.strands));
      m "closure.residual" "ratio" residual;
      m "trace.cost_s" "s" (median !traced_walls -. untraced);
    ] )
