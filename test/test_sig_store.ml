(* Tests for the signature store and the perfect signature. *)

let mk_payload line =
  Ddp_core.Payload.pack ~loc:(Ddp_minir.Loc.make ~file:1 ~line) ~var:0 ~thread:0

let test_empty_probe () =
  let s = Ddp_core.Sig_store.create ~slots:64 () in
  Alcotest.(check int) "empty" 0 (Ddp_core.Sig_store.probe s ~addr:123)

let test_set_probe () =
  let s = Ddp_core.Sig_store.create ~slots:64 () in
  let p = mk_payload 5 in
  Ddp_core.Sig_store.set s ~addr:42 ~payload:p ~time:7;
  Alcotest.(check int) "payload" p (Ddp_core.Sig_store.probe s ~addr:42);
  Alcotest.(check int) "time" 7 (Ddp_core.Sig_store.probe_time s ~addr:42);
  Alcotest.(check int) "occupied" 1 (Ddp_core.Sig_store.occupied s)

let test_overwrite_same_addr () =
  let s = Ddp_core.Sig_store.create ~slots:64 () in
  Ddp_core.Sig_store.set s ~addr:1 ~payload:(mk_payload 1) ~time:1;
  Ddp_core.Sig_store.set s ~addr:1 ~payload:(mk_payload 2) ~time:2;
  Alcotest.(check int) "latest wins" (mk_payload 2) (Ddp_core.Sig_store.probe s ~addr:1);
  Alcotest.(check int) "occupancy stable" 1 (Ddp_core.Sig_store.occupied s)

let test_remove () =
  let s = Ddp_core.Sig_store.create ~slots:64 () in
  Ddp_core.Sig_store.set s ~addr:9 ~payload:(mk_payload 3) ~time:1;
  Ddp_core.Sig_store.remove s ~addr:9;
  Alcotest.(check int) "removed" 0 (Ddp_core.Sig_store.probe s ~addr:9);
  Alcotest.(check int) "occupancy back" 0 (Ddp_core.Sig_store.occupied s)

let test_collision_overwrites () =
  (* With one slot, every address collides: the second insert evicts the
     first — the signature's deliberate approximation. *)
  let s = Ddp_core.Sig_store.create ~slots:1 () in
  Ddp_core.Sig_store.set s ~addr:1 ~payload:(mk_payload 1) ~time:1;
  Ddp_core.Sig_store.set s ~addr:2 ~payload:(mk_payload 2) ~time:2;
  Alcotest.(check int) "addr 1 now reports addr 2's payload" (mk_payload 2)
    (Ddp_core.Sig_store.probe s ~addr:1)

let test_clear () =
  let s = Ddp_core.Sig_store.create ~slots:8 () in
  Ddp_core.Sig_store.set s ~addr:1 ~payload:(mk_payload 1) ~time:1;
  Ddp_core.Sig_store.clear s;
  Alcotest.(check int) "cleared" 0 (Ddp_core.Sig_store.probe s ~addr:1);
  Alcotest.(check int) "occupancy zero" 0 (Ddp_core.Sig_store.occupied s)

let test_accounting () =
  let acct = Ddp_util.Mem_account.create () in
  let s = Ddp_core.Sig_store.create ~account:(acct, "sig") ~slots:1000 () in
  Alcotest.(check int) "charged" (1000 * Ddp_core.Sig_store.bytes_per_slot)
    (Ddp_util.Mem_account.current acct "sig");
  (* handing a finished store back to the pool leaves its charge alone *)
  Ddp_core.Sig_store.recycle s;
  Alcotest.(check int) "still charged after recycle" (1000 * Ddp_core.Sig_store.bytes_per_slot)
    (Ddp_util.Mem_account.current acct "sig")

let test_invalid_size () =
  Alcotest.check_raises "zero slots" (Invalid_argument "Sig_store.create: slots must be positive")
    (fun () -> ignore (Ddp_core.Sig_store.create ~slots:0 ()))

(* Property: with a table far larger than the address set, the signature
   behaves exactly (no false answers) as long as no two addresses share a
   slot — verified against a model map. *)
let prop_exact_when_no_collisions =
  QCheck.Test.make ~name:"signature exact modulo collisions" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (pair (int_range 0 10_000) (int_range 1 1000)))
    (fun ops ->
      let s = Ddp_core.Sig_store.create ~slots:65536 () in
      let model = Hashtbl.create 16 in
      let slot_owner = Hashtbl.create 16 in
      let ok = ref true in
      List.iteri
        (fun i (addr, line) ->
          let payload = mk_payload line in
          let slot = Ddp_core.Sig_store.index s addr in
          let collided =
            match Hashtbl.find_opt slot_owner slot with
            | Some owner -> owner <> addr
            | None -> false
          in
          Hashtbl.replace slot_owner slot addr;
          Ddp_core.Sig_store.set s ~addr ~payload ~time:i;
          Hashtbl.replace model addr payload;
          if not collided then begin
            let expected = Hashtbl.find model addr in
            if Ddp_core.Sig_store.probe s ~addr <> expected then ok := false
          end)
        ops;
      !ok)

(* Property: perfect signature is a faithful map whatever the collisions. *)
let prop_perfect_is_exact =
  QCheck.Test.make ~name:"perfect signature faithful" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 80) (pair (int_range 0 50) (int_range 1 1000)))
    (fun ops ->
      let s = Ddp_core.Perfect_sig.create () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i (addr, line) ->
          let payload = mk_payload line in
          Ddp_core.Perfect_sig.set s ~addr ~payload ~time:i;
          Hashtbl.replace model addr payload)
        ops;
      Hashtbl.fold
        (fun addr payload acc -> acc && Ddp_core.Perfect_sig.probe s ~addr = payload)
        model true)

let test_perfect_remove () =
  let s = Ddp_core.Perfect_sig.create () in
  Ddp_core.Perfect_sig.set s ~addr:5 ~payload:(mk_payload 1) ~time:0;
  Alcotest.(check int) "entries" 1 (Ddp_core.Perfect_sig.entries s);
  Ddp_core.Perfect_sig.remove s ~addr:5;
  Alcotest.(check int) "gone" 0 (Ddp_core.Perfect_sig.probe s ~addr:5);
  Alcotest.(check int) "entries 0" 0 (Ddp_core.Perfect_sig.entries s)

(* -- recycled signatures ------------------------------------------------------ *)

module Engine = Ddp_core.Engine
module Sig_store = Ddp_core.Sig_store

(* A slot count no other test uses, small enough that the traces
   collide: a store reused without being cleared would change keys. *)
let recycle_slots = (1 lsl 12) + 3

let trace name scale =
  let w = Ddp_workloads.Registry.find name in
  fst (Ddp_minir.Interp.trace ~input_seed:3 ~sched_seed:4 (w.Ddp_workloads.Wl.seq ~scale))

let serial_session () =
  Ddp_core.Engines.serial.Engine.create { Ddp_core.Config.default with slots = recycle_slots }

let keys_of (s : Engine.session) events =
  Ddp_minir.Event.replay s.Engine.hooks events;
  Ddp_core.Dep_store.key_set (s.Engine.finish ()).Engine.deps

let test_recycle_detaches_and_clears () =
  let s = Sig_store.create ~slots:recycle_slots () in
  Sig_store.set s ~addr:77 ~payload:(mk_payload 4) ~time:9;
  Sig_store.recycle s;
  Sig_store.recycle s (* idempotent *);
  (match Sig_store.probe s ~addr:77 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "probe on a recycled store answered");
  (match Sig_store.set s ~addr:77 ~payload:(mk_payload 5) ~time:10 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "set on a recycled store accepted");
  let before = Sig_store.For_tests.pooled ~slots:recycle_slots in
  Alcotest.(check bool) "pooled" true (before >= 1);
  let s' = Sig_store.create ~slots:recycle_slots () in
  Alcotest.(check int) "taken from the pool" (before - 1) (Sig_store.For_tests.pooled ~slots:recycle_slots);
  Alcotest.(check int) "cleared payload" 0 (Sig_store.probe s' ~addr:77);
  Alcotest.(check int) "cleared time" 0 (Sig_store.probe_time s' ~addr:77);
  Alcotest.(check int) "occupancy zero" 0 (Sig_store.occupied s');
  Sig_store.recycle s'

let test_pool_bounded () =
  let stores = List.init (Sig_store.For_tests.pool_cap + 3) (fun _ -> Sig_store.create ~slots:recycle_slots ()) in
  List.iter Sig_store.recycle stores;
  Alcotest.(check bool) "at most pool_cap retained" true
    (Sig_store.For_tests.pooled ~slots:recycle_slots <= Sig_store.For_tests.pool_cap)

(* The pool keeps the [pool_cap] most recently recycled stores: taking
   one must not move the others ahead of stores recycled after them. *)
let test_pool_keeps_most_recent () =
  let a = 101 and b = 102 and c = 103 in
  let create slots n = List.init n (fun _ -> Sig_store.create ~slots ()) in
  List.iter Sig_store.recycle (create b 2 @ create a 1);
  ignore (Sig_store.create ~slots:b () : Sig_store.t);
  List.iter Sig_store.recycle (create c (Sig_store.For_tests.pool_cap - 1));
  Alcotest.(check int) "newer store kept" 1 (Sig_store.For_tests.pooled ~slots:a);
  Alcotest.(check int) "older store dropped" 0 (Sig_store.For_tests.pooled ~slots:b)

(* Fresh stores, then stores last used on another trace, then again:
   the same keys every time. *)
let test_back_to_back_sessions () =
  let a = trace "scan-task" 4 and b = trace "msort-task-racy" 2 in
  let fresh = keys_of (serial_session ()) a in
  Alcotest.(check bool) "finished session handed both stores back" true
    (Sig_store.For_tests.pooled ~slots:recycle_slots >= 2);
  let other = keys_of (serial_session ()) b in
  let again = keys_of (serial_session ()) a in
  Alcotest.(check bool) "recycled stores, same keys" true (Ddp_core.Dep_store.Key_set.equal fresh again);
  let other_again = keys_of (serial_session ()) b in
  Alcotest.(check bool) "other trace, same keys" true (Ddp_core.Dep_store.Key_set.equal other other_again)

(* A finished session's hooks raise, and its stores' next owner never
   sees the late events. *)
let test_late_hook_raises () =
  let a = trace "scan-task" 4 in
  let fresh = keys_of (serial_session ()) a in
  let old = serial_session () in
  ignore (keys_of old a : Ddp_core.Dep_store.Key_set.t);
  let next = serial_session () in
  let half = List.length a / 2 in
  Ddp_minir.Event.replay next.Engine.hooks (List.filteri (fun i _ -> i < half) a);
  let h = old.Engine.hooks in
  (match h.Ddp_minir.Event.on_write ~addr:5 ~loc:1 ~var:0 ~thread:0 ~time:1 ~locked:false with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a finished session's write hook ran");
  (match h.Ddp_minir.Event.on_read ~addr:5 ~loc:1 ~var:0 ~thread:0 ~time:2 ~locked:false with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a finished session's read hook ran");
  Ddp_minir.Event.replay next.Engine.hooks (List.filteri (fun i _ -> i >= half) a);
  let got = Ddp_core.Dep_store.key_set (next.Engine.finish ()).Engine.deps in
  Alcotest.(check bool) "next session's keys unchanged" true (Ddp_core.Dep_store.Key_set.equal fresh got)

let suite =
  [
    Alcotest.test_case "empty probe" `Quick test_empty_probe;
    Alcotest.test_case "set/probe" `Quick test_set_probe;
    Alcotest.test_case "overwrite same addr" `Quick test_overwrite_same_addr;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "collision overwrites" `Quick test_collision_overwrites;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "accounting" `Quick test_accounting;
    Alcotest.test_case "invalid size" `Quick test_invalid_size;
    Alcotest.test_case "perfect remove" `Quick test_perfect_remove;
    Alcotest.test_case "recycle detaches and clears" `Quick test_recycle_detaches_and_clears;
    Alcotest.test_case "recycle pool bounded" `Quick test_pool_bounded;
    Alcotest.test_case "recycle pool keeps the most recent" `Quick test_pool_keeps_most_recent;
    Alcotest.test_case "back-to-back sessions on recycled stores" `Quick test_back_to_back_sessions;
    Alcotest.test_case "finished session's hooks raise" `Quick test_late_hook_raises;
    Test_seed.to_alcotest prop_exact_when_no_collisions;
    Test_seed.to_alcotest prop_perfect_is_exact;
  ]
