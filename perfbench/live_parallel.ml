(* live-parallel: the paper's Sec. IV pipeline on live interpreter runs.

   Programs span the working sets that drive signature cost: kmeans
   (18k hot addresses), cg (57k sparse), rgbyuv (360k streaming), md5.
   The parallel engine runs with W = nproc - 1 worker domains and the
   CLI's default 1,048,576 slots.  The only workload that exercises
   dispatch, chunk fill, SPSC transfer, worker step and merge. *)

open Common
module Chunk = Ddp_core.Chunk
module Dispatch = Ddp_core.Dispatch
module Sig_store = Ddp_core.Sig_store
module Algo = Ddp_core.Algo
module Payload = Ddp_core.Payload
module PP = Ddp_core.Parallel_profiler

let programs = [ "kmeans"; "rgbyuv"; "cg"; "md5" ]

(* Set-up units: each program with its perfect-oracle key set. *)
let setup ~seed = List.map (fun n () -> let p = prog ~seed n in (p, oracle_keys ~seed p)) programs

(* -- untraced: end-to-end --------------------------------------------------- *)

let e2e ~seed ~seconds =
  (* the producer and the W workers keep W + 1 domains busy *)
  let progs, setup = timed_setup ~domains:(workers + 1) (setup ~seed) in
  let acc = new_accuracy () in
  let e =
    profile_programs ~seconds ~setup Ddp_core.Engines.parallel (config ~seed) progs
      ~check:(fun round (p : prog) oracle r ->
        check_complete ("live-parallel " ^ p.name) r.outcome.health;
        if round = 0 then
          check_accuracy acc ("live-parallel " ^ p.name) ~oracle ~got:(Dep_store.key_set r.outcome.deps))
  in
  Printf.printf "live-parallel: W=%d, %d passes of %d programs; fpr %.4f%% fnr %.4f%% over %d/%d deps\n%!" workers
    e.samples (List.length progs) (fpr_pct acc) (fnr_pct acc) acc.reported acc.truth;
  e2e_metrics e

(* -- traced: the per-layer ledger ------------------------------------------- *)

(* Producer-side stages, composed from the layers' public functions the
   way Parallel_profiler.route composes them: dispatch alone, or with
   [fill] dispatch plus chunk fill (a full chunk is cleared in place).
   The hand-off of full chunks is measured on the real engine instead
   (see [transfer]). *)
let producer ~fill (cfg : Config.t) =
  let w = cfg.Config.workers in
  let d = Dispatch.create ~workers:w ~sample:cfg.stats_sample ~hot_set_size:cfg.hot_set_size in
  let regions = Ddp_core.Region.create () in
  let chunks = Array.init w (fun _ -> Chunk.create ~capacity:cfg.chunk_size) in
  let sink = ref 0 in
  let route ~addr ~op ~payload ~time =
    Dispatch.note_access d addr;
    let wi = Dispatch.worker_of d addr in
    if fill then begin
      let c = chunks.(wi) in
      Chunk.push c ~addr ~op ~payload ~time;
      if Chunk.is_full c then Chunk.clear c
    end
    else sink := !sink + wi + payload + time
  in
  let memory : Event.memory_handler =
    {
      on_read =
        (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
          route ~addr ~op:Chunk.op_read ~payload:(Payload.pack_unsafe ~loc ~var ~thread) ~time);
      on_write =
        (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
          route ~addr ~op:Chunk.op_write ~payload:(Payload.pack_unsafe ~loc ~var ~thread) ~time);
    }
  in
  let alloc : Event.alloc_handler =
    {
      on_alloc = (fun ~base:_ ~len:_ ~var:_ -> ());
      on_free =
        (fun ~base ~len ~var:_ ->
          for a = base to base + len - 1 do
            route ~addr:a ~op:Chunk.op_free ~payload:1 ~time:0
          done);
    }
  in
  Handler.hooks (Handler.make ~memory ~region:(Ddp_core.Serial_profiler.region_handler regions) ~alloc ())

(* The real parallel engine with an Obs hub on, so the SPSC transfer is
   measured as it runs: the real workers on the other end, and a full
   queue when they fall behind.  Returns the run, its result, and the
   transfer layer: chunks pushed, pushes that found the queue full, and
   the producer's time handing chunks over (its Flush spans minus the
   Queue_full waits nested in them: waiting is the worker's cost, which
   the makespan model counts on the worker side). *)
type transfer = { chunks : int; full : int; transfer_s : float }

let hub_ring = 1 lsl 16

let engine_with_hub (cfg : Config.t) p =
  let module Obs = Ddp_obs.Obs in
  let hub = Obs.create ~ring_capacity:hub_ring ~domains:(cfg.Config.workers + 1) () in
  let real = run_engine Ddp_core.Engines.parallel { cfg with Config.obs = Some hub } p in
  let snap = Obs.snapshot hub in
  check (snap.Obs.dropped = 0)
    (Printf.sprintf "live-parallel traced %s: the Obs ring dropped %d events" p.name snap.Obs.dropped);
  let span_ns tag =
    List.fold_left
      (fun a (e : Obs.event) -> if e.is_span && e.tag = tag && e.dom = 0 then a + e.dur else a)
      0 snap.Obs.events
  in
  let result =
    match real.outcome.Ddp_core.Engine.extra with
    | Ddp_core.Engines.Parallel_result r -> r
    | _ -> failwith "live-parallel: the parallel engine returned no pipeline result"
  in
  ( real,
    result,
    {
      chunks = Obs.counter snap Obs.C.chunks_pushed;
      full = Obs.counter snap Obs.C.queue_full_stalls;
      transfer_s = float_of_int (span_ns Obs.Tag.Flush - span_ns Obs.Tag.Queue_full) /. 1e9;
    } )

(* Worker stage: the real pipeline in virtual mode (no domains), every
   worker_step timed by the schedule callbacks, with the real per-worker
   slot count. *)
let worker_stage (cfg : Config.t) p =
  let t = PP.create ~virtual_mode:true cfg in
  let busy = Array.make cfg.Config.workers 0 in
  let step w =
    let t0 = Clock.monotonic_ns () in
    let progressed = PP.worker_step t w in
    busy.(w) <- busy.(w) + (Clock.monotonic_ns () - t0);
    progressed
  in
  let drain w =
    while PP.queue_depth t w > 0 && step w do
      ()
    done
  in
  PP.set_vsched t
    {
      PP.on_chunk = drain;
      on_stall = (function PP.Queue_full w | PP.Drain_wait w -> ignore (step w : bool));
    };
  PP.start t;
  ignore (run ~hooks:(PP.hooks t) p : Interp.stats);
  let r = PP.finish t in
  (Array.map (fun ns -> float_of_int ns /. 1e9) busy, r)

(* Signature stage: Algorithm 1 over per-worker signatures partitioned
   by address modulo W, without the pipeline, fed by [feed]; the
   worker-local dependence stores are then merged as the pipeline's
   end-of-run merge does.  Returns the two spans' durations, the merged
   store and the signatures' (overwrites, peak occupied, slots). *)
type sig_part = { reads : Sig_store.t; writes : Sig_store.t; deps : Dep_store.t; algo : Algo.Over_signature.t }

let sig_stage tr (cfg : Config.t) feed =
  let w = cfg.Config.workers in
  let slots = Config.slots_per_worker cfg in
  let parts =
    Array.init w (fun _ ->
        let reads = Sig_store.create ~slots () and writes = Sig_store.create ~slots () in
        let deps = Dep_store.create () in
        let algo =
          Algo.Over_signature.create ~track_init:cfg.track_init
            ~war_requires_prior_write:cfg.war_requires_prior_write ~reads ~writes ~deps ()
        in
        { reads; writes; deps; algo })
  in
  let sum f = Array.fold_left (fun a pt -> a + f pt.reads + f pt.writes) 0 parts in
  (* Programs free everything at exit, so end-of-run occupancy is 0:
     sample the peak every 4,096 accesses instead. *)
  let n = ref 0 and peak = ref 0 in
  let tick () =
    incr n;
    if !n land 0xfff = 0 then peak := max !peak (sum Sig_store.occupied)
  in
  let memory : Event.memory_handler =
    {
      on_read =
        (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
          tick ();
          Algo.Over_signature.on_read parts.(addr mod w).algo ~addr
            ~payload:(Payload.pack_unsafe ~loc ~var ~thread) ~time);
      on_write =
        (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
          tick ();
          Algo.Over_signature.on_write parts.(addr mod w).algo ~addr
            ~payload:(Payload.pack_unsafe ~loc ~var ~thread) ~time);
    }
  in
  let alloc : Event.alloc_handler =
    {
      on_alloc = (fun ~base:_ ~len:_ ~var:_ -> ());
      on_free =
        (fun ~base ~len ~var:_ ->
          for a = base to base + len - 1 do
            Algo.Over_signature.on_free parts.(a mod w).algo ~addr:a
          done);
    }
  in
  let t_sig = stage tr "sig_store" (fun () -> feed (Handler.hooks (Handler.make ~memory ~alloc ()))) in
  let global = Dep_store.create () in
  let t_merge =
    Span.time tr "dep_store.merge" (fun () ->
        Array.iter (fun pt -> Dep_store.merge_into ~src:pt.deps ~dst:global) parts)
  in
  (t_sig, t_merge, global, (sum Sig_store.overwrites, max !peak (sum Sig_store.occupied), sum Sig_store.size))

(* Ledger totals over one traced pass, summed across programs. *)
type ledger = {
  mutable interp : float;
  mutable handler : float;
  mutable dispatch : float;
  mutable fill : float;
  mutable transfer : float;  (* the real engine's chunk hand-offs *)
  mutable worker : float;  (* summed over workers *)
  mutable slowest : float;  (* sum over programs of the slowest worker *)
  mutable busy_frac : float list;
  mutable imbalance : float list;
  mutable sig_ : float;
  mutable merge : float;
  mutable model : float;  (* makespan model, summed over programs *)
  mutable measured : float;  (* real parallel engine wall *)
  mutable events : int;
  mutable accesses : int;
  mutable chunks : int;
  mutable full : int;
  mutable worker_events : int;
  mutable redistributions : int;
  mutable overwrites : int;
  mutable occupied : int;
  mutable slots : int;
  mutable merge_factor : float list;
}

let traced ~seed ~seconds =
  let progs = List.map (fun f -> f ()) (setup ~seed) in
  let cfg = config ~seed in
  (* Untraced reference pass: the cost of tracing is the traced pass
     minus this. *)
  let untraced =
    sum (List.map (fun (p, _) -> (run_engine Ddp_core.Engines.parallel cfg p).wall) progs)
  in
  let tr = Span.create () in
  let acc = new_accuracy () in
  let ledgers = ref [] and traced_walls = ref [] in
  measure ~seconds (fun _ ->
         let l =
           {
             interp = 0.; handler = 0.; dispatch = 0.; fill = 0.; transfer = 0.; worker = 0.;
             slowest = 0.; busy_frac = []; imbalance = []; sig_ = 0.; merge = 0.; model = 0.;
             measured = 0.; events = 0; accesses = 0; chunks = 0; full = 0; worker_events = 0;
             redistributions = 0; overwrites = 0; occupied = 0; slots = 0; merge_factor = [];
           }
         in
         let (), wall =
           Span.with_ tr "pass" (fun () ->
               List.iter
                 (fun ((p : prog), oracle) ->
                   ignore @@ Span.time tr ("program:" ^ p.name) (fun () ->
                       let (real, result, xfer), _ =
                         Span.with_ tr "engine" (fun () -> engine_with_hub cfg p)
                       in
                       check_complete ("live-parallel traced " ^ p.name) real.outcome.health;
                       if !ledgers = [] then
                         check_accuracy acc ("live-parallel traced " ^ p.name) ~oracle
                           ~got:(Dep_store.key_set real.outcome.deps);
                       let t_interp, t_stage1, t_handler, c = interp_stages tr p in
                       let stage name fill =
                         let hooks = producer ~fill cfg in
                         stage tr name (fun () -> ignore (run ~hooks p : Interp.stats))
                       in
                       (* interleaved 2-3-3-2, like stages 0 and 1 *)
                       let d1 = stage "dispatch" false in
                       let f1 = stage "chunk.fill" true in
                       let f2 = stage "chunk.fill" true in
                       let d2 = stage "dispatch" false in
                       let t_dispatch = (d1 +. d2) /. 2.0 and t_fill = (f1 +. f2) /. 2.0 in
                       let (busy, r), _ =
                         Gc.full_major ();
                         Span.with_ tr "parallel_profiler.worker" (fun () -> worker_stage cfg p)
                       in
                       let t_sig, t_merge, merged, (ow, occ, slots) =
                         sig_stage tr cfg (fun hooks -> ignore (run ~hooks p : Interp.stats))
                       in
                       let slowest = Array.fold_left max 0.0 busy in
                       l.interp <- l.interp +. t_interp;
                       l.handler <- l.handler +. t_handler;
                       l.dispatch <- l.dispatch +. (t_dispatch -. t_stage1);
                       l.fill <- l.fill +. (t_fill -. t_dispatch);
                       l.transfer <- l.transfer +. xfer.transfer_s;
                       l.worker <- l.worker +. Array.fold_left ( +. ) 0.0 busy;
                       l.slowest <- l.slowest +. slowest;
                       l.busy_frac <- (Array.fold_left max 0.0 result.PP.per_worker_busy /. real.wall) :: l.busy_frac;
                       l.imbalance <-
                         Ddp_util.Stats.imbalance (Array.map float_of_int result.PP.per_worker_events)
                         :: l.imbalance;
                       l.sig_ <- l.sig_ +. (t_sig -. t_stage1);
                       l.merge <- l.merge +. t_merge;
                       (* Sec. IV makespan: the producer (the fill stage's
                          interp + handler + dispatch + fill, plus the
                          transfer) against the slowest worker, then the
                          merge *)
                       l.model <- l.model +. max (t_fill +. xfer.transfer_s) slowest +. t_merge;
                       l.measured <- l.measured +. real.wall;
                       l.events <- l.events + c.events;
                       l.accesses <- l.accesses + c.accesses;
                       l.chunks <- l.chunks + xfer.chunks;
                       l.full <- l.full + xfer.full;
                       l.worker_events <- l.worker_events + Array.fold_left ( + ) 0 r.PP.per_worker_events;
                       l.redistributions <- l.redistributions + r.PP.redistributions;
                       l.overwrites <- l.overwrites + ow;
                       l.occupied <- l.occupied + occ;
                       l.slots <- l.slots + slots;
                       l.merge_factor <- Dep_store.merge_factor merged :: l.merge_factor))
                 progs)
         in
         traced_walls := wall :: !traced_walls;
         ledgers := l :: !ledgers);
  let med f = median (List.map f !ledgers) in
  let model_err = med (fun l -> (l.model -. l.measured) /. l.measured) in
  Printf.printf "live-parallel ledger: makespan model error %+.1f%% (model vs measured wall)\n%!"
    (100.0 *. model_err);
  ( tr,
    [
      m "interp.ns_per_access" "ns" (med (fun l -> per_ns l.interp l.accesses));
      m "handler.ns_per_event" "ns" (med (fun l -> per_ns l.handler l.events));
      m "dispatch.ns_per_event" "ns" (med (fun l -> per_ns l.dispatch l.accesses));
      m "chunk.fill_ns_per_event" "ns" (med (fun l -> per_ns l.fill l.accesses));
      m "dispatch.redistributions" "count" (med (fun l -> float_of_int l.redistributions));
      m "spsc_queue.ns_per_chunk" "ns" (med (fun l -> per_ns l.transfer l.chunks));
      m "spsc_queue.push_fail_ratio" "ratio" (med (fun l -> float_of_int l.full /. float_of_int (max 1 l.chunks)));
      m "parallel_profiler.worker_ns_per_event" "ns" (med (fun l -> per_ns l.worker l.worker_events));
      m "parallel_profiler.imbalance" "ratio" (med (fun l -> median l.imbalance));
      m "parallel_profiler.worker_busy_frac" "ratio" (med (fun l -> median l.busy_frac));
      m "sig_store.ns_per_access" "ns" (med (fun l -> per_ns l.sig_ l.accesses));
      m "sig_store.overwrite_ratio" "ratio"
        (med (fun l -> float_of_int l.overwrites /. float_of_int (max 1 l.accesses)));
      m "sig_store.occupancy" "ratio" (med (fun l -> float_of_int l.occupied /. float_of_int (max 1 l.slots)));
      m "dep_store.merge_ms" "ms" (med (fun l -> l.merge *. 1e3));
      m "dep_store.merge_factor" "ratio" (med (fun l -> median l.merge_factor));
      m "fpr_pct" "%" (fpr_pct acc);
      m "fnr_pct" "%" (fnr_pct acc);
      m "makespan.model_error" "ratio" model_err;
      m "trace.cost_s" "s" (median !traced_walls -. untraced);
    ] )
