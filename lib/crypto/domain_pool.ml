(** A dependency-free work pool over [Domain.spawn] (OCaml 5 stdlib only).

    The pool runs index-parallel loops: [run pool ~n ~f] executes [f i]
    exactly once for every [i] in [0, n), spreading the items over the
    pool's [size] claimants. Items must be independent — the pool
    provides no ordering between them, only a completion barrier (all
    items finished, and their writes published, before [run] returns).

    The caller's role is fixed at [create] by the hang timeout:
    - unwatched (no timeout): the caller and [size - 1] workers claim
      items and meet at a condvar barrier. Size 1 spawns no domains and
      [run] is a plain sequential loop on the caller.
    - watched ([hang_timeout_s]): [size] workers claim items and stamp a
      per-claim heartbeat, and the caller only watches for (a) a recorded
      item exception, (b) a worker silent past the timeout while holding
      a claim, (c) the cancel token firing, (d) pool shutdown. Watching
      adds a domain rather than removing a claimant, so a watched pool
      of size 1 detects hangs too.

    Workers are persistent: they are spawned once at [create] and park on
    a mutex/condition-variable queue between batches, so per-batch
    overhead is one broadcast plus one atomic fetch-and-add per item.
    [shutdown] joins the workers; pools also register an [at_exit] hook so
    forgotten pools cannot hang program termination.

    {2 Abort safety}

    Every batch is fail-fast: the first item exception, a fired cancel
    token or a shutdown sets the batch's [abort] flag. A participant
    {e increments [active] before} it re-checks [abort]/[stop]/the cancel
    token, and only claims an item if the check passed; the barrier
    waits for [active] to reach zero (minus known-hung workers). Under SC
    atomics this means: once an observer has seen [abort] set and
    [active] drained, no participant can touch another item or write
    into the batch's recycled per-item contexts — the batch is
    quiescent, not merely abandoned. That ordering is the whole point;
    do not reorder the [active] increment after the abort check.

    A hang poisons the pool — the hung domain cannot be joined or
    recovered, so every later batch runs sequentially on the caller
    ({!poisoned}) and [shutdown] skips the hung slot (the domain leaks
    until process exit, which is the only sound option OCaml offers).
    Heartbeats are per-claim, so a single item must finish within the
    timeout; size it for the workload, not the batch.

    Every participant always keeps a contention timeline — nanoseconds
    spent running items (busy), parked or waiting on the barrier
    (queue-wait), and acquiring the pool lock (lock-wait), plus
    batches/items claimed and condvar wakeups — readable via
    {!timelines}. Timing uses [Unix.gettimeofday] (microsecond
    resolution), which is far finer than the millisecond-scale waits the
    profile exists to expose. A read costs ~45 ns (2-vCPU host, 200k-call
    loop): two per item on the pooled path and two per batch on the
    sequential one, plus two per contended lock and per wakeup. *)

type timeline = {
  slot : int;  (* 0 = the calling domain, 1.. = workers *)
  mutable busy_ns : float;
  mutable queue_wait_ns : float;
  mutable lock_wait_ns : float;
  mutable batches : int;   (* batches this participant claimed >= 1 item of *)
  mutable items : int;
  mutable wakeups : int;   (* condvar wakeups (worker parking + barrier) *)
  mutable origin_ns : float;
      (* workers: spawn (or last reset) timestamp, for wall-clock;
         caller (slot 0): unused, wall accumulates in [run_ns] *)
  mutable run_ns : float;  (* slot 0 only: wall-clock spent inside [run] *)
  mutable park_ns : float;
      (* workers: when the current park began, 0. when not parked; read
         and written under the pool lock *)
}

type worker_fault =
  | Item_raised of { item : int; exn : exn }
  | Worker_hung of { slot : int; item : int; silent_s : float }

exception Pool_shutdown of { unclaimed : int }
exception Pool_failure of worker_fault

let () =
  Printexc.register_printer (function
    | Pool_shutdown { unclaimed } ->
        Some (Printf.sprintf "Pool_shutdown { unclaimed = %d }" unclaimed)
    | Pool_failure (Item_raised { item; exn }) ->
        Some
          (Printf.sprintf "Pool_failure (Item_raised { item = %d; exn = %s })"
             item (Printexc.to_string exn))
    | Pool_failure (Worker_hung { slot; item; silent_s }) ->
        Some
          (Printf.sprintf
             "Pool_failure (Worker_hung { slot = %d; item = %d; silent_s = %.2f })"
             slot item silent_s)
    | _ -> None)

(* How often a watching caller samples heartbeats and batch progress. *)
let poll_interval = 0.002

type job = {
  f : int -> unit;
  n : int;
  next : int Atomic.t;      (* next unclaimed index *)
  finished : int Atomic.t;  (* items fully processed *)
  active : int Atomic.t;    (* participants inside the claim/run loop *)
  abort : bool Atomic.t;    (* stop claiming; drain and leave *)
  cancel : Secyan_deadline.t option;  (* polled before every claim *)
  failure : worker_fault option Atomic.t;  (* first fault wins *)
}

type t = {
  size : int;  (* domains that claim items *)
  hang_timeout_s : float option;  (* [Some _]: the caller watches *)
  lock : Mutex.t;
  work : Condition.t;  (* a job was posted, or shutdown requested *)
  idle : Condition.t;  (* a job completed, or a participant left the batch *)
  mutable pending : job option;
  stop : bool Atomic.t;
  poisoned : bool Atomic.t;  (* a worker hung; all later batches sequential *)
  hung : bool array;         (* per slot, written by the watcher under lock *)
  claims : int Atomic.t array;   (* per slot: running item index, -1 when idle *)
  beats : int Atomic.t array;    (* per slot: last heartbeat, ns since epoch *)
  mutable domains : (int * unit Domain.t) list;  (* (slot, domain) *)
  timelines : timeline array;  (* one per participant, index = slot *)
}

let size t = t.size
let poisoned t = Atomic.get t.poisoned
let watched t = Option.is_some t.hang_timeout_s

(* Workers occupy slots 1 .. [workers t]; slot 0 is the caller. *)
let workers t = Array.length t.timelines - 1

let now_ns () = Unix.gettimeofday () *. 1e9

(* 63-bit ns since the epoch: fits until ~2262, and [int Atomic.t] sets
   are unboxed (an [int64 Atomic.t] would allocate per heartbeat). *)
let now_ns_int () = int_of_float (Unix.gettimeofday () *. 1e9)

let fresh_timeline slot =
  { slot; busy_ns = 0.; queue_wait_ns = 0.; lock_wait_ns = 0.; batches = 0; items = 0;
    wakeups = 0; origin_ns = 0.; run_ns = 0.; park_ns = 0. }

(* Take the pool lock, charging contention to [tl]. The try_lock fast
   path keeps the uncontended case clock-free. *)
let lock_timed t tl =
  if not (Mutex.try_lock t.lock) then begin
    let t0 = now_ns () in
    Mutex.lock t.lock;
    tl.lock_wait_ns <- tl.lock_wait_ns +. (now_ns () -. t0)
  end

let record_fault job fault =
  ignore (Atomic.compare_and_set job.failure None (Some fault) : bool)

(* Should this participant stop claiming? Re-checked after every [active]
   increment; also trips the batch abort when the cancel token fires. *)
let stopping t job =
  Atomic.get job.abort || Atomic.get t.stop
  ||
  match job.cancel with
  | Some c when Secyan_deadline.poll c <> None ->
      Atomic.set job.abort true;
      true
  | _ -> false

(* Claim and run items of [job] until the index space is exhausted or the
   batch aborts. The first exception from [f] is recorded and aborts the
   batch; the item still counts as finished so the barrier cannot
   deadlock. In a watched pool each claim is published with a heartbeat.
   Leaving participants unpublish the job (so parked workers do not
   rediscover it) and broadcast [idle] so a caller blocked on the barrier
   re-evaluates. *)
let drain t tl ~slot job =
  let leave () =
    lock_timed t tl;
    (match t.pending with
    | Some j when j == job -> t.pending <- None
    | _ -> ());
    Condition.broadcast t.idle;
    Mutex.unlock t.lock
  in
  let run_item i =
    try job.f i
    with e ->
      record_fault job (Item_raised { item = i; exn = e });
      Atomic.set job.abort true
  in
  let heartbeat = watched t in
  let rec go claimed_any =
    (* [active] up BEFORE the abort check: an observer that sees abort
       set and active = 0 knows no further claim can happen. *)
    Atomic.incr job.active;
    if stopping t job then begin
      Atomic.decr job.active;
      leave ()
    end
    else begin
      let i = Atomic.fetch_and_add job.next 1 in
      if i >= job.n then begin
        Atomic.decr job.active;
        leave ()
      end
      else begin
        if heartbeat then begin
          Atomic.set t.beats.(slot) (now_ns_int ());
          Atomic.set t.claims.(slot) i
        end;
        if not claimed_any then tl.batches <- tl.batches + 1;
        let t0 = now_ns () in
        run_item i;
        tl.busy_ns <- tl.busy_ns +. (now_ns () -. t0);
        tl.items <- tl.items + 1;
        if heartbeat then Atomic.set t.claims.(slot) (-1);
        ignore (Atomic.fetch_and_add job.finished 1 : int);
        Atomic.decr job.active;
        if Atomic.get job.finished = job.n then begin
          lock_timed t tl;
          Condition.broadcast t.idle;
          Mutex.unlock t.lock
        end;
        go true
      end
    end
  in
  go false

let rec worker t slot =
  let tl = t.timelines.(slot) in
  lock_timed t tl;
  while t.pending = None && not (Atomic.get t.stop) do
    tl.park_ns <- now_ns ();
    Condition.wait t.work t.lock;
    tl.queue_wait_ns <- tl.queue_wait_ns +. (now_ns () -. tl.park_ns);
    tl.park_ns <- 0.;
    tl.wakeups <- tl.wakeups + 1
  done;
  if Atomic.get t.stop then Mutex.unlock t.lock
  else begin
    let job = match t.pending with Some j -> j | None -> assert false in
    Mutex.unlock t.lock;
    drain t tl ~slot job;
    worker t slot
  end

(* Idempotent — and safe against concurrent callers (a test shutting the
   pool down racing the [at_exit] hook): the domain list is captured and
   cleared atomically under the lock, so exactly one caller joins each
   worker and a second call finds nothing to do. Workers parked in
   [Condition.wait] wake on the broadcast and exit; a worker mid-drain
   sees [stop] at its next claim, leaves the batch, re-checks [stop],
   and exits — the batch's caller is woken via [idle] and raises the
   typed {!Pool_shutdown} instead of returning partial results. Slots
   declared hung are never joined (a join would hang forever); those
   domains leak until process exit by design. *)
let shutdown t =
  Mutex.lock t.lock;
  Atomic.set t.stop true;
  Condition.broadcast t.work;
  Condition.broadcast t.idle;
  let doomed = t.domains in
  t.domains <- [];
  let joinable = List.filter (fun (slot, _) -> not t.hung.(slot)) doomed in
  Mutex.unlock t.lock;
  List.iter (fun (_, d) -> Domain.join d) joinable

let create ?hang_timeout_s size =
  let size = max 1 (min size 128) in
  let slots = if Option.is_some hang_timeout_s then size + 1 else size in
  let t =
    {
      size;
      hang_timeout_s;
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      pending = None;
      stop = Atomic.make false;
      poisoned = Atomic.make false;
      hung = Array.make slots false;
      claims = Array.init slots (fun _ -> Atomic.make (-1));
      beats = Array.init slots (fun _ -> Atomic.make 0);
      domains = [];
      timelines = Array.init slots fresh_timeline;
    }
  in
  if slots > 1 then begin
    t.domains <-
      List.init (slots - 1) (fun i ->
          let slot = i + 1 in
          ( slot,
            Domain.spawn (fun () ->
                t.timelines.(slot).origin_ns <- now_ns ();
                worker t slot) ));
    (* A parked worker would keep the program alive at exit; make sure
       forgotten pools wind down. [shutdown] is idempotent. *)
    at_exit (fun () -> shutdown t)
  end;
  t

(* Sequential execution on the caller — the path of an unwatched size-1
   pool, a shut-down or poisoned pool, and one-item unwatched batches.
   Same contract as the pooled path: the cancel token is polled before
   every item, and the first item exception stops the batch as
   [Item_raised]. *)
let run_sequential ?cancel t ~n ~f =
  let tl = t.timelines.(0) in
  let t0 = now_ns () in
  let ran = ref 0 in
  let account () =
    (* all of a sequential batch's wall-clock is busy time *)
    let d = now_ns () -. t0 in
    tl.busy_ns <- tl.busy_ns +. d;
    tl.run_ns <- tl.run_ns +. d;
    tl.items <- tl.items + !ran;
    if !ran > 0 then tl.batches <- tl.batches + 1
  in
  Fun.protect ~finally:account @@ fun () ->
  for i = 0 to n - 1 do
    (match cancel with
    | Some c -> Secyan_deadline.check ~where:"pool:item" c
    | None -> ());
    (try f i with e -> raise (Pool_failure (Item_raised { item = i; exn = e })));
    incr ran
  done

let sequential_only t = workers t = 0 || Atomic.get t.stop || Atomic.get t.poisoned

let post t tl job =
  lock_timed t tl;
  t.pending <- Some job;
  Condition.broadcast t.work;
  Mutex.unlock t.lock

(* Raise the typed outcome of an incomplete or faulted batch; returns
   normally only when every item finished and none raised. Priority:
   recorded fault, then cancellation, then shutdown. *)
let resolve t job =
  (match Atomic.get job.failure with
  | Some fault -> raise (Pool_failure fault)
  | None -> ());
  if Atomic.get job.finished < job.n then begin
    (match job.cancel with
    | Some c -> Secyan_deadline.check ~where:"pool:batch" c
    | None -> ());
    if Atomic.get t.stop then
      raise (Pool_shutdown { unclaimed = job.n - Atomic.get job.finished })
    else
      (* abort with no fault, no cancellation, no stop cannot happen *)
      assert false
  end

(* The claiming caller's barrier: drain alongside the workers, then wait
   until every item is done or the aborted batch has no active
   participant. *)
let claim_and_wait t tl job =
  drain t tl ~slot:0 job;
  lock_timed t tl;
  while
    not
      (Atomic.get job.finished = job.n
      || ((Atomic.get job.abort || Atomic.get t.stop) && Atomic.get job.active = 0))
  do
    let t0 = now_ns () in
    Condition.wait t.idle t.lock;
    tl.queue_wait_ns <- tl.queue_wait_ns +. (now_ns () -. t0);
    tl.wakeups <- tl.wakeups + 1
  done;
  Mutex.unlock t.lock

(* Count hung workers still inside the claim loop: they contribute to
   [active] but will never drain, so the watcher nets them out. *)
let hung_active t =
  let k = ref 0 in
  for slot = 1 to workers t do
    if t.hung.(slot) && Atomic.get t.claims.(slot) >= 0 then incr k
  done;
  !k

let declare_hung t job ~slot ~item ~silent_s =
  Mutex.lock t.lock;
  let fresh = not t.hung.(slot) in
  if fresh then t.hung.(slot) <- true;
  Mutex.unlock t.lock;
  if fresh then begin
    Atomic.set t.poisoned true;
    record_fault job (Worker_hung { slot; item; silent_s });
    Atomic.set job.abort true
  end

(* The watching caller's barrier. It polls rather than waiting on [idle]
   because OCaml's [Condition] has no timed wait, and hang detection
   needs a clock anyway. A watcher stuck inside [f] could rescue nobody,
   which is why it never claims. *)
let watch_and_wait t tl job ~hang_timeout_s =
  let t0 = now_ns () in
  let rec go () =
    if Atomic.get job.finished < job.n then begin
      (match job.cancel with
      | Some c when Secyan_deadline.poll c <> None -> Atomic.set job.abort true
      | _ -> ());
      if Atomic.get t.stop then Atomic.set job.abort true;
      let now = now_ns_int () in
      for slot = 1 to workers t do
        if not t.hung.(slot) then begin
          let item = Atomic.get t.claims.(slot) in
          if item >= 0 then begin
            let silent_s = float_of_int (now - Atomic.get t.beats.(slot)) *. 1e-9 in
            if silent_s > hang_timeout_s then declare_hung t job ~slot ~item ~silent_s
          end
        end
      done;
      if not (Atomic.get job.abort && Atomic.get job.active <= hung_active t) then begin
        Unix.sleepf poll_interval;
        go ()
      end
    end
  in
  go ();
  tl.queue_wait_ns <- tl.queue_wait_ns +. (now_ns () -. t0)

let run ?cancel t ~n ~f =
  if n > 0 then
    if sequential_only t || (n = 1 && not (watched t)) then run_sequential ?cancel t ~n ~f
    else begin
      let tl = t.timelines.(0) in
      let t_start = now_ns () in
      let job =
        { f; n; next = Atomic.make 0; finished = Atomic.make 0;
          active = Atomic.make 0; abort = Atomic.make false; cancel;
          failure = Atomic.make None }
      in
      (match t.hang_timeout_s with
      | None ->
          post t tl job;
          claim_and_wait t tl job
      | Some hang_timeout_s ->
          (* Pre-stamp every worker's heartbeat: a worker that never gets
             to claim (all parked) must not look hung. *)
          let now = now_ns_int () in
          for slot = 1 to workers t do
            Atomic.set t.beats.(slot) now
          done;
          post t tl job;
          watch_and_wait t tl job ~hang_timeout_s);
      tl.run_ns <- tl.run_ns +. (now_ns () -. t_start);
      resolve t job
    end

type timeline_snapshot = {
  domain : int;
  busy_ns : float;
  queue_wait_ns : float;
  lock_wait_ns : float;
  wall_ns : float;
  batches : int;
  items : int;
  wakeups : int;
}

(* Both read and reset under the pool lock, so a worker's current park
   (counted up to [now]) and its [queue_wait_ns] are seen consistently. *)
let timelines t =
  Mutex.protect t.lock @@ fun () ->
  let now = now_ns () in
  Array.to_list
    (Array.map
       (fun (tl : timeline) ->
         {
           domain = tl.slot;
           busy_ns = tl.busy_ns;
           queue_wait_ns =
             (if tl.park_ns > 0. then tl.queue_wait_ns +. (now -. tl.park_ns)
              else tl.queue_wait_ns);
           lock_wait_ns = tl.lock_wait_ns;
           wall_ns =
             (if tl.slot = 0 then tl.run_ns
              else if tl.origin_ns > 0. then now -. tl.origin_ns
              else 0.);
           batches = tl.batches;
           items = tl.items;
           wakeups = tl.wakeups;
         })
       t.timelines)

let reset_timelines t =
  Mutex.protect t.lock @@ fun () ->
  let now = now_ns () in
  Array.iter
    (fun (tl : timeline) ->
      tl.busy_ns <- 0.;
      tl.queue_wait_ns <- 0.;
      tl.lock_wait_ns <- 0.;
      tl.batches <- 0;
      tl.items <- 0;
      tl.wakeups <- 0;
      tl.run_ns <- 0.;
      if tl.park_ns > 0. then tl.park_ns <- now;
      if tl.slot > 0 && tl.origin_ns > 0. then tl.origin_ns <- now)
    t.timelines
