(* The signature: a fixed-size hashed slot array (paper Sec. III-B).

   Unlike a bloom filter, each slot holds a full payload (the packed
   source location / variable / thread of the last access, see Payload)
   plus a timestamp, because building a dependence needs the source line,
   and the multi-threaded extension (Sec. V-B) needs access times.  A
   single hash function is used — the paper makes the same choice to keep
   element *removal* possible for the variable-lifetime analysis.

   Hash collisions overwrite: that is the deliberate approximation that
   trades bounded memory for a small false-positive/negative rate,
   quantified by Table I and predicted by Eq. (2). *)

type t = {
  mutable slots : int array;  (* packed payloads; 0 = empty; [||] once recycled *)
  mutable times : int array;
  size : int;
  mutable occupied : int;
  mutable overwrites : int;  (* sets that landed on an occupied slot *)
}

let bytes_per_slot = 16 (* two boxed-free int lanes *)

(* Recycled signatures.  A finished session hands its arrays back
   ([recycle]) and the next [create] of the same size takes them instead
   of allocating.  This pays off in one kind of traffic: a process
   running many short, back-to-back serial sessions with the same slot
   count — a daemon serving small task traces — where each session
   would otherwise allocate two fresh 8 MiB arrays per store and leave
   them to the major collector, which falls behind and lets the heap
   grow.  A single long session gains nothing: the pool then only holds
   its arrays after it ends.  Arrays are cleared on the recycling side,
   so a taken pair is indistinguishable from a fresh one.  The pool
   holds the [pool_cap] most recently recycled stores — two serial
   sessions' worth — and leaves older ones to the collector, so what it
   retains stays bounded whatever the number of concurrent sessions,
   and a stale size cannot crowd out the current one.  Recycling leaves
   byte accounting alone: a store stays charged to the account it was
   created under. *)
let pool_cap = 4

let pool : (int array * int array) list ref = ref []
let pool_mu = Mutex.create ()

let take_pooled size =
  Mutex.protect pool_mu (fun () ->
      match List.find_opt (fun (s, _) -> Array.length s = size) !pool with
      | Some p ->
        pool := List.filter (fun q -> q != p) !pool;
        Some p
      | None -> None)

let create ?account ~slots () =
  if slots <= 0 then invalid_arg "Sig_store.create: slots must be positive";
  (match account with
  | Some (acct, cat) -> Ddp_util.Mem_account.add acct cat (slots * bytes_per_slot)
  | None -> ());
  let s, tm =
    match take_pooled slots with
    | Some p -> p
    | None -> (Array.make slots 0, Array.make slots 0)
  in
  { slots = s; times = tm; size = slots; occupied = 0; overwrites = 0 }

(* Detach first: any later access through [t] hits the empty arrays and
   raises, rather than reading or writing a signature some other session
   now owns.  Idempotent. *)
let recycle t =
  let s = t.slots and tm = t.times in
  if Array.length s > 0 then begin
    t.slots <- [||];
    t.times <- [||];
    Array.fill s 0 t.size 0;
    Array.fill tm 0 t.size 0;
    Mutex.protect pool_mu (fun () -> pool := List.filteri (fun i _ -> i < pool_cap) ((s, tm) :: !pool))
  end

module For_tests = struct
  let pool_cap = pool_cap

  let pooled ~slots =
    Mutex.protect pool_mu (fun () -> List.length (List.filter (fun (s, _) -> Array.length s = slots) !pool))
end

let size t = t.size
let occupied t = t.occupied
let overwrites t = t.overwrites

(* Fibonacci (multiplicative) hashing spreads consecutive addresses —
   the common case for array walks — across the table. *)
let index t addr = (addr * 0x2545F4914F6CDD1D land max_int) mod t.size

let probe t ~addr = t.slots.(index t addr)

let probe_time t ~addr = t.times.(index t addr)

let set t ~addr ~payload ~time =
  let i = index t addr in
  if t.slots.(i) = 0 then begin
    if payload <> 0 then t.occupied <- t.occupied + 1
  end
  else t.overwrites <- t.overwrites + 1;
  t.slots.(i) <- payload;
  t.times.(i) <- time

(* Variable-lifetime analysis support: drop the slot for a freed address.
   With one hash function this may also evict a colliding live entry —
   an accepted approximation (it can cause a false negative, never an
   unsound extra dependence). *)
let remove t ~addr =
  let i = index t addr in
  if t.slots.(i) <> 0 then t.occupied <- t.occupied - 1;
  t.slots.(i) <- 0;
  t.times.(i) <- 0

let clear t =
  Array.fill t.slots 0 t.size 0;
  Array.fill t.times 0 t.size 0;
  t.occupied <- 0

(* Raw slot access, used by the parallel profiler to migrate signature
   state when a hot address is redistributed to another worker
   (Sec. IV-A). *)
let slot_of_index t i = (t.slots.(i), t.times.(i))

let set_index t i ~payload ~time =
  if t.slots.(i) = 0 && payload <> 0 then t.occupied <- t.occupied + 1
  else if t.slots.(i) <> 0 && payload = 0 then t.occupied <- t.occupied - 1;
  t.slots.(i) <- payload;
  t.times.(i) <- time

let bytes t = t.size * bytes_per_slot
