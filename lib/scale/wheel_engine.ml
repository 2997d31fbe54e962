module Rng = Gossip_util.Rng
module Engine = Gossip_sim.Engine

type protocol = Kernel.protocol =
  | Push_pull
  | Flood
  | Random_contact
  | Rr_spanner of { stretch_k : int }
  | Dtg_local of { ell : int }
  | Unknown_eid
  | Unified
  | K_rumor of { k : int; budget : int }
  | Rumor_rotation of { k : int; budget : int }
  | Algebraic of { k : int; budget : int }

let protocol_name = Kernel.protocol_name

let protocol_of_string = Kernel.protocol_of_string

let known_protocols = Kernel.known_protocols

type metrics = Engine.metrics

(* The network environment, the engine's one conditions input: a
   time-indexed generalization of the reference engine's fault plan.
   Where [Engine.faults.jitter] sees only (latency, round), the
   environment's latency map also sees the edge's endpoints — the hook
   `lib/dyn` scenarios use to drift, modulate, or adversarially jitter
   specific edges.  Churn adds two notions the static plan lacks:
   [env_present_since] asks whether a node has been continuously
   present over an exchange's lifetime (an exchange binds to both
   endpoints' incarnations — a node that departed and came back must
   not receive stale traffic from its previous life), and [env_rejoin]
   marks the amnesia point where a returning node forgets the rumor.
   [env_has_churn] gates the per-round rejoin scan so churn-free
   environments pay nothing for it. *)
type env = {
  env_alive : node:int -> round:int -> bool;
  env_present_since : node:int -> since:int -> round:int -> bool;
  env_drop : initiator:int -> responder:int -> round:int -> bool;
  env_latency : u:int -> v:int -> latency:int -> round:int -> int;
  env_rejoin : node:int -> round:int -> bool;
  env_has_churn : bool;
}

(* A static fault plan is the trivial environment: presence over an
   interval collapses to liveness at the evaluation round, the latency
   map ignores the endpoints, nobody rejoins.  Every check below then
   computes exactly what the pre-environment engine computed, which is
   what keeps static runs bit-identical. *)
let env_of_faults (f : Engine.faults) =
  {
    env_alive = (fun ~node ~round -> f.Engine.alive ~node ~round);
    env_present_since = (fun ~node ~since:_ ~round -> f.Engine.alive ~node ~round);
    env_drop =
      (fun ~initiator ~responder ~round -> f.Engine.drop ~initiator ~responder ~round);
    env_latency = (fun ~u:_ ~v:_ ~latency ~round -> f.Engine.jitter ~latency ~round);
    env_rejoin = (fun ~node:_ ~round:_ -> false);
    env_has_churn = false;
  }

(* The default environment: no crashes, drops, jitter or churn. *)
let static_env = env_of_faults Engine.no_faults

exception Jitter_overflow of { latency : int; bound : int; round : int }

exception Deadline_exceeded of { round : int; elapsed_s : float }

exception Pool_exhausted of { used : int; round : int }

let () =
  Printexc.register_printer (function
    | Pool_exhausted { used; round } ->
        Some
          (Printf.sprintf
             "Wheel_engine.Pool_exhausted: exchange pool exhausted at %d live exchanges in \
              round %d (raise ?pool_capacity or let the pool grow unbounded)"
             used round)
    | Jitter_overflow { latency; bound; round } ->
        Some
          (Printf.sprintf
             "Wheel_engine.Jitter_overflow: jittered latency %d exceeds the wheel bound %d \
              at round %d (declare the fault plan's maximum jitter via ?max_jitter)"
             latency bound round)
    | Deadline_exceeded { round; elapsed_s } ->
        Some
          (Printf.sprintf
             "Wheel_engine.Deadline_exceeded: wall-clock budget spent after %.3fs at round %d"
             elapsed_s round)
    | _ -> None)

(* The asserted ceiling for [wheel.minor_words_per_round] on static
   runs: the round loop is allocation-free by construction (no
   per-round closures, refs that escape, or boxed ints), and the only
   amortized allocations left — pool growth, history doubling — stay
   far below this once a run is more than a handful of rounds long.
   Tests, bench e18, and the CI smoke hard-fail against it. *)
let minor_words_budget = 64

(* Round to nearest, not truncate: the same bug class PR 3 fixed in
   [busy_us] and PR 8 in [crash_fraction] — [int_of_float] alone maps
   a 7.9-words/round loop to gauge 7. *)
let gauge_of_minor_words ~total ~rounds =
  int_of_float (Float.round (total /. float_of_int rounds))

(* Telemetry handles, resolved once at creation (see Engine.tel).  The
   kernel-tagged counters carry the kernel name in the metric name
   itself, so a JSONL report shows which kernel produced the run's
   traffic — and, since the rumor-state layer, how many payload words
   it put on the wire against its declared per-message bit budget. *)
type tel = {
  tel_ring : Gossip_obs.Ring.t option;
  h_deliveries : Gossip_obs.Registry.histogram;
  h_initiations : Gossip_obs.Registry.histogram;
  h_inflight : Gossip_obs.Registry.histogram;
  g_inflight : Gossip_obs.Registry.gauge;
  g_minor_words : Gossip_obs.Registry.gauge;
  c_kernel_deliveries : Gossip_obs.Registry.counter;
  c_kernel_initiations : Gossip_obs.Registry.counter;
  c_kernel_words : Gossip_obs.Registry.counter;
}

let wheel_bound ?wheel_latency ~max_jitter csr =
  if max_jitter < 0 then invalid_arg "Wheel_engine.create: max_jitter must be >= 0";
  match wheel_latency with
  | None -> Csr.max_latency csr + max_jitter
  | Some b ->
      if b < Csr.max_latency csr then
        invalid_arg "Wheel_engine.create: wheel_latency below the graph's ℓ_max";
      if b < Csr.max_latency csr + max_jitter then
        invalid_arg
          (Printf.sprintf
             "Wheel_engine.create: wheel_latency %d cannot hold the fault plan's maximum \
              jitter (ℓ_max %d + max_jitter %d = %d)"
             b (Csr.max_latency csr) max_jitter
             (Csr.max_latency csr + max_jitter));
      b

(* Pool indices live in int32 cells ([s_next], the free list), so the
   growth ceiling is clamped to the int32 range — the pool raises the
   typed [Pool_exhausted] there instead of wrapping an index. *)
let pool_limit_of = function
  | None -> min Sys.max_array_length I32.max_value
  | Some c ->
      if c < 1 then invalid_arg "Wheel_engine.create: pool_capacity must be >= 1";
      min c I32.max_value

let resolve_tel ~kernel_name ~msg_words telemetry =
  Option.map
    (fun reg ->
      (* The bit budget is declared state, not traffic: a gauge set
         once at resolution (32 payload bits per int32 word). *)
      Gossip_obs.Registry.set
        (Gossip_obs.Registry.gauge reg
           (Printf.sprintf "wheel.kernel.%s.bits_budget" kernel_name))
        (32 * msg_words);
      {
        tel_ring = Gossip_obs.Registry.ring reg;
        h_deliveries = Gossip_obs.Registry.histogram reg "wheel.round.deliveries";
        h_initiations = Gossip_obs.Registry.histogram reg "wheel.round.initiations";
        h_inflight = Gossip_obs.Registry.histogram reg "wheel.inflight";
        g_inflight = Gossip_obs.Registry.gauge reg "wheel.inflight.max";
        g_minor_words = Gossip_obs.Registry.gauge reg "wheel.minor_words_per_round";
        c_kernel_deliveries =
          Gossip_obs.Registry.counter reg
            (Printf.sprintf "wheel.kernel.%s.deliveries" kernel_name);
        c_kernel_initiations =
          Gossip_obs.Registry.counter reg
            (Printf.sprintf "wheel.kernel.%s.initiations" kernel_name);
        c_kernel_words =
          Gossip_obs.Registry.counter reg
            (Printf.sprintf "wheel.kernel.%s.words_on_wire" kernel_name);
      })
    telemetry

(* The kernel's contact rows must fit the wheel even under the fault
   plan's worst jitter; for kernels derived from [csr] this is
   automatic (their latencies are a subset), so the check only bites
   on caller-supplied orientations. *)
let check_contact ~bound ~max_jitter kernel csr =
  let contact = kernel.Kernel.contact in
  if Csr.oriented_n contact <> Csr.n csr then
    invalid_arg "Wheel_engine.create: kernel contact node count differs from the graph";
  if Csr.oriented_edge_count contact > 0
     && Csr.oriented_max_latency contact > bound - max_jitter
  then
    invalid_arg
      (Printf.sprintf
         "Wheel_engine.create: kernel contact latency %d exceeds the wheel bound %d \
          (graph ℓ_max %d + max_jitter %d)"
         (Csr.oriented_max_latency contact)
         (bound - max_jitter) (Csr.max_latency csr) max_jitter)

(* Kernel-side validation: the store must cover the graph, and the
   declared payload budget must be positive and fit a mailbox
   reservation (the int32-safe ceiling — a kernel whose per-message
   word count could not be reserved in a cross-shard column raises the
   same typed overflow the reservation itself would). *)
let check_kernel_shape ~n kernel =
  if Rumor_store.capacity kernel.Kernel.store <> n then
    invalid_arg "Wheel_engine.create: kernel store capacity differs from the node count";
  let mw = kernel.Kernel.msg_words in
  if mw < 1 then invalid_arg "Wheel_engine.create: kernel msg_words must be >= 1";
  if mw > Shard.Buf.max_capacity then
    raise (Shard.Buf_overflow { need = mw; limit = Shard.Buf.max_capacity });
  mw

(* Seed the kernel's store: an optional initial informed set (EID
   chains phases by handing one kernel's result bytes to the next —
   the bytes are read, never shared) plus the broadcast source.  For
   classic kernels seeding marks (single-rumor semantics); multi-rumor
   kernels seed their rumor state at construction and their on_seed
   hook decides whether a node is already completed. *)
let seed_store ?informed ~n ~source store =
  (match informed with
  | None -> ()
  | Some src ->
      if Bytes.length src <> n then
        invalid_arg "Wheel_engine.create: ?informed length differs from the node count";
      for v = 0 to n - 1 do
        if Bytes.get src v <> '\000' then Rumor_store.seed store v
      done);
  Rumor_store.seed store source

type result = {
  rounds : int option;
  metrics : metrics;
  history : (int * int) list;
  informed : Bytes.t;
}

(* The informed-count history, accumulated into growable int arrays
   during the measured loop (a cons per change would charge two-plus
   words per round to the allocation gauge) and converted to the
   result's association list only after the gauge is read. *)
type hist = {
  mutable h_round : int array;
  mutable h_count : int array;
  mutable h_len : int;
}

let hist_create round count =
  let h = { h_round = Array.make 64 0; h_count = Array.make 64 0; h_len = 1 } in
  h.h_round.(0) <- round;
  h.h_count.(0) <- count;
  h

let hist_push h round count =
  if h.h_len = Array.length h.h_round then begin
    let cap = 2 * h.h_len in
    let nr = Array.make cap 0 and nc = Array.make cap 0 in
    Array.blit h.h_round 0 nr 0 h.h_len;
    Array.blit h.h_count 0 nc 0 h.h_len;
    h.h_round <- nr;
    h.h_count <- nc
  end;
  h.h_round.(h.h_len) <- round;
  h.h_count.(h.h_len) <- count;
  h.h_len <- h.h_len + 1

let hist_to_list h = List.init h.h_len (fun i -> (h.h_round.(i), h.h_count.(i)))

(* ------------------------------------------------------------------ *)
(* The round loop.                                                    *)
(*                                                                    *)
(* Nodes are partitioned into [k] contiguous shards (Shard.bounds);   *)
(* each shard owns its own exchange pool, arrival/response wheels,    *)
(* informed-byte slice, and RNG streams, so a round splits into two   *)
(* stages separated by barriers:                                      *)
(*                                                                    *)
(*   stage 1 (responder side): phase 0 (churn rejoins), drain the     *)
(*     initiation mailboxes addressed to this shard in ascending      *)
(*     source-shard order, then phases 1a/1b.  Responses whose        *)
(*     initiator lives elsewhere go to a response mailbox.            *)
(*   -- barrier --                                                    *)
(*   stage 2 (initiator side): drain response mailboxes in ascending  *)
(*     source-shard order, then phase 1c and phase 2.  Initiations    *)
(*     toward a foreign responder go to an initiation mailbox,        *)
(*     drained at the next round's stage 1.                           *)
(*   -- barrier + serial merge --                                     *)
(*                                                                    *)
(* [k = 1] is the same code with one shard that owns every node: no   *)
(* mailbox is ever written, no barrier is taken, and the stages run   *)
(* back to back on the calling domain.                                *)
(*                                                                    *)
(* Determinism: every within-phase effect is order-independent        *)
(* (informed marks are idempotent, counters are commutative sums,     *)
(* response payloads are fixed in 1a from round-start state), every   *)
(* informed-byte access is own-shard-only, and each node's RNG        *)
(* stream is private to its owner — so for a pure environment the     *)
(* trajectory, metrics, and RNG consumption are bit-identical for     *)
(* every k and any domain schedule.                                   *)
(* ------------------------------------------------------------------ *)

(* A shard's in-flight exchanges are pooled in parallel int32 columns
   (a structure of arrays — 4 bytes per field instead of a boxed word)
   and threaded into singly-linked lists by [s_next]: one arrival list
   and one response list per wheel slot, plus a free list.  An exchange
   id is an index into the pool; [-1] terminates a list.  Everything a
   column stores — node ids, payload words, absolute rounds, row slots,
   pool indices — fits int32 by the CSR range contract plus the
   per-round due-date guard in [stage2_initiate]. *)
type shard = {
  s_id : int;
  s_lo : int;
  s_hi : int;  (* owns nodes [s_lo, s_hi) *)
  s_arrival : int array;  (* wheel slot -> exchange list *)
  s_response : int array;
  mutable s_initiator : I32.t;
  mutable s_responder : I32.t;
  mutable s_req_pay : I32.t;  (* mw request words per exchange, at ex * mw *)
  mutable s_resp_pay : I32.t;  (* mw response words per exchange, at ex * mw *)
  s_scratch : I32.t;  (* mw words: req_pay staging for remote initiations *)
  mutable s_due : I32.t;  (* absolute response-due round *)
  mutable s_init : I32.t;  (* initiation round, for presence-interval checks *)
  mutable s_slot : I32.t;  (* contact-row slot [on_initiate] picked *)
  mutable s_next : I32.t;
  mutable s_free : int;
  mutable s_pool_used : int;  (* high-water mark of allocated slots *)
  mutable s_in_flight : int;  (* live exchanges = wheel-slot occupancy *)
  mutable s_count : int;  (* informed nodes owned by this shard *)
  (* run-cumulative counters, summed by the merge *)
  mutable s_deliveries : int;
  mutable s_initiations : int;
  mutable s_dropped : int;
  mutable s_payload : int;
  mutable s_remote_inits : int;
  mutable s_remote_resps : int;
  (* first failure this round: (stage rank, node, exn); the merge
     picks the lexicographic minimum so the surfaced exception is the
     first failure in phase order, whatever the shard count *)
  mutable s_fail : (int * int * exn) option;
  mutable s_at : int;  (* node the shard is currently processing *)
}

(* Cross-shard mailboxes are structure-of-arrays: one int32 column
   ({!Shard.Buf}) per record field.  Record [i] of a mailbox is cell
   [i] of each scalar column — except the payload column, which
   carries [msg_words] cells per record (record [i]'s words start at
   [i * msg_words]), so multi-word kernels cross shard boundaries
   without any per-message boxing. *)
let init_cols = 7 (* initiator responder req_pay due arr_slot init_round slot *)

let resp_cols = 5 (* initiator resp_pay due init_round slot *)

type shared = {
  sh_csr : Csr.t;
  sh_kernel : Kernel.t;  (* one instance, owner-only per-node state access *)
  sh_env : env;
  sh_wheel : int;  (* slot count = wheel latency bound + 1 *)
  sh_mw : int;  (* kernel msg_words: payload words per message *)
  sh_informed : Bytes.t;  (* the store's bytes; disjoint per-shard slices *)
  sh_rngs : Rng.t array;  (* per-node streams; empty for rng-free kernels *)
  sh_k : int;
  sh_pool_limit : int;
  (* per-(src shard, dst shard) mailboxes at [src * k + dst]; written
     in one stage, drained after a barrier, so no locking is needed.
     A shard never mails itself: the diagonal holds no columns, so a
     one-shard run allocates no mailbox at all. *)
  sh_init_mail : Shard.Buf.t array array;
  sh_resp_mail : Shard.Buf.t array array;
}

let mailboxes k cols =
  Array.init (k * k) (fun i ->
      if i / k = i mod k then [||] else Array.init cols (fun _ -> Shard.Buf.create ()))

let make_shard ctx id lo hi =
  let n_own = hi - lo in
  let cap = min (max 1024 n_own) ctx.sh_pool_limit in
  let count = ref 0 in
  for v = lo to hi - 1 do
    if Bytes.get ctx.sh_informed v <> '\000' then incr count
  done;
  {
    s_id = id;
    s_lo = lo;
    s_hi = hi;
    s_arrival = Array.make ctx.sh_wheel (-1);
    s_response = Array.make ctx.sh_wheel (-1);
    s_initiator = I32.make cap 0;
    s_responder = I32.make cap 0;
    s_req_pay = I32.make (cap * ctx.sh_mw) 0;
    s_resp_pay = I32.make (cap * ctx.sh_mw) 0;
    s_scratch = I32.make ctx.sh_mw 0;
    s_due = I32.make cap 0;
    s_init = I32.make cap 0;
    s_slot = I32.make cap 0;
    s_next = I32.make cap (-1);
    s_free = -1;
    s_pool_used = 0;
    s_in_flight = 0;
    s_count = !count;
    s_deliveries = 0;
    s_initiations = 0;
    s_dropped = 0;
    s_payload = 0;
    s_remote_inits = 0;
    s_remote_resps = 0;
    s_fail = None;
    s_at = lo;
  }

let s_grow ctx sh round =
  let old = I32.length sh.s_next in
  let cap = min (2 * old) ctx.sh_pool_limit in
  (* Hitting the ceiling is a failed run, not a harness crash: the
     typed exception (with a registered printer) lets [Sweep.run_ft]
     checkpoint the job as [Failed] with a useful message. *)
  if cap = old then raise (Pool_exhausted { used = sh.s_pool_used; round });
  let extend w a =
    let b = I32.make (cap * w) 0 in
    I32.blit ~src:a ~dst:b (old * w);
    b
  in
  sh.s_initiator <- extend 1 sh.s_initiator;
  sh.s_responder <- extend 1 sh.s_responder;
  sh.s_req_pay <- extend ctx.sh_mw sh.s_req_pay;
  sh.s_resp_pay <- extend ctx.sh_mw sh.s_resp_pay;
  sh.s_due <- extend 1 sh.s_due;
  sh.s_init <- extend 1 sh.s_init;
  sh.s_slot <- extend 1 sh.s_slot;
  sh.s_next <- extend 1 sh.s_next

let s_alloc ctx sh round =
  sh.s_in_flight <- sh.s_in_flight + 1;
  if sh.s_free >= 0 then begin
    let e = sh.s_free in
    sh.s_free <- I32.get sh.s_next e;
    e
  end
  else begin
    if sh.s_pool_used >= I32.length sh.s_next then s_grow ctx sh round;
    let e = sh.s_pool_used in
    sh.s_pool_used <- sh.s_pool_used + 1;
    e
  end

let s_free_ex sh e =
  sh.s_in_flight <- sh.s_in_flight - 1;
  I32.set sh.s_next e sh.s_free;
  sh.s_free <- e

let s_mark ctx sh v =
  if Bytes.get ctx.sh_informed v = '\000' then begin
    Bytes.set ctx.sh_informed v '\001';
    sh.s_count <- sh.s_count + 1
  end

(* The stages are allocation-free: environment and kernel hooks are
   called directly (no per-round [alive]/[present] closures), loop
   cursors are non-escaping refs (unboxed by the compiler), and every
   pool access goes through the int32 columns, whose reads compile
   without boxing.  [minor_words_budget] is the enforced witness. *)

(* Stage 1: phase 0, mailbox drain, phases 1a/1b on the responder's shard. *)
let stage1 ctx sh round =
  sh.s_at <- sh.s_lo;
  let k = ctx.sh_k in
  let slot = round mod ctx.sh_wheel in
  (* Phase 0: churned nodes scheduled to rejoin this round come back
     with amnesia — the kernel's forget hook resets their rumor state
     (a multi-rumor node can hold partial state without being
     completed) and the completed bit is cleared before any of this
     round's deliveries, so stale in-flight traffic (already doomed by
     the presence-interval checks below) cannot re-complete them and
     the informed count stays an honest census of current
     incarnations.  Store bytes are own-shard-only, so this is
     race-free and the merge's count sum stays exact. *)
  if ctx.sh_env.env_has_churn then begin
    let st = ctx.sh_kernel.Kernel.store in
    for v = sh.s_lo to sh.s_hi - 1 do
      if ctx.sh_env.env_rejoin ~node:v ~round then begin
        Rumor_store.forget_state st v;
        if Bytes.get ctx.sh_informed v <> '\000' then begin
          Bytes.set ctx.sh_informed v '\000';
          sh.s_count <- sh.s_count - 1
        end
      end
    done
  end;
  for src = 0 to k - 1 do
    if src <> sh.s_id then begin
      let m = ctx.sh_init_mail.((src * k) + sh.s_id) in
      let c_initiator = m.(0)
      and c_responder = m.(1)
      and c_req_pay = m.(2)
      and c_due = m.(3)
      and c_arr_slot = m.(4)
      and c_init_round = m.(5)
      and c_slot = m.(6) in
      let mw = ctx.sh_mw in
      let len = Shard.Buf.length c_initiator in
      for i = 0 to len - 1 do
        let ex = s_alloc ctx sh round in
        I32.set sh.s_initiator ex (Shard.Buf.unsafe_get c_initiator i);
        I32.set sh.s_responder ex (Shard.Buf.unsafe_get c_responder i);
        let pb = ex * mw and mb = i * mw in
        for w = 0 to mw - 1 do
          I32.set sh.s_req_pay (pb + w) (Shard.Buf.unsafe_get c_req_pay (mb + w));
          I32.set sh.s_resp_pay (pb + w) 0
        done;
        I32.set sh.s_due ex (Shard.Buf.unsafe_get c_due i);
        let arr_slot = Shard.Buf.unsafe_get c_arr_slot i in
        I32.set sh.s_init ex (Shard.Buf.unsafe_get c_init_round i);
        I32.set sh.s_slot ex (Shard.Buf.unsafe_get c_slot i);
        I32.set sh.s_next ex sh.s_arrival.(arr_slot);
        sh.s_arrival.(arr_slot) <- ex
      done;
      for c = 0 to init_cols - 1 do
        Shard.Buf.clear m.(c)
      done
    end
  done;
  (* 1a: every response due to be generated this round reads the
     informed set as of the start of the round — before any of this
     round's push merges — matching Engine.step's sub-phase ordering.
     Requests whose responder is absent are lost here, answer and all.
     An exchange is delivered only while both endpoints remain in the
     incarnation that initiated it; for a static environment that is
     plain liveness at [round]. *)
  let e = ref sh.s_arrival.(slot) in
  while !e >= 0 do
    let ex = !e in
    let responder = I32.get sh.s_responder ex in
    if ctx.sh_env.env_present_since ~node:responder ~since:(I32.get sh.s_init ex) ~round
    then
      ctx.sh_kernel.Kernel.on_deliver ~v:responder
        ~informed:(Bytes.get ctx.sh_informed responder <> '\000')
        ~buf:sh.s_resp_pay ~off:(ex * ctx.sh_mw);
    e := I32.get sh.s_next ex
  done;
  (* 1b: merge the pushed words and park each surviving exchange on the
     response list of its due slot (for latency-1 edges that is this
     very slot, delivered in 1c), or ship it to the initiator's shard. *)
  let e = ref sh.s_arrival.(slot) in
  sh.s_arrival.(slot) <- -1;
  while !e >= 0 do
    let ex = !e in
    let next = I32.get sh.s_next ex in
    let responder = I32.get sh.s_responder ex in
    if ctx.sh_env.env_present_since ~node:responder ~since:(I32.get sh.s_init ex) ~round
    then begin
      let mw = ctx.sh_mw in
      sh.s_deliveries <- sh.s_deliveries + 1;
      sh.s_payload <- sh.s_payload + mw;
      if ctx.sh_kernel.Kernel.on_push ~v:responder ~buf:sh.s_req_pay ~off:(ex * mw) then
        s_mark ctx sh responder;
      let initiator = I32.get sh.s_initiator ex in
      if initiator >= sh.s_lo && initiator < sh.s_hi then begin
        let due_slot = I32.get sh.s_due ex mod ctx.sh_wheel in
        I32.set sh.s_next ex sh.s_response.(due_slot);
        sh.s_response.(due_slot) <- ex
      end
      else begin
        let dst = Shard.owner ~n:(Csr.n ctx.sh_csr) ~k initiator in
        let m = ctx.sh_resp_mail.((sh.s_id * k) + dst) in
        Shard.Buf.push m.(0) initiator;
        let b = Shard.Buf.reserve m.(1) mw in
        for w = 0 to mw - 1 do
          Shard.Buf.set m.(1) (b + w) (I32.get sh.s_resp_pay ((ex * mw) + w))
        done;
        Shard.Buf.push m.(2) (I32.get sh.s_due ex);
        Shard.Buf.push m.(3) (I32.get sh.s_init ex);
        Shard.Buf.push m.(4) (I32.get sh.s_slot ex);
        s_free_ex sh ex;
        sh.s_remote_resps <- sh.s_remote_resps + 1
      end
    end
    else begin
      sh.s_dropped <- sh.s_dropped + 1;
      s_free_ex sh ex
    end;
    e := next
  done

(* Stage 2, first half: response-mailbox drain + phase 1c on the
   initiator's shard. *)
let stage2_deliver ctx sh round =
  sh.s_at <- sh.s_lo;
  let k = ctx.sh_k in
  let slot = round mod ctx.sh_wheel in
  for src = 0 to k - 1 do
    if src <> sh.s_id then begin
      let m = ctx.sh_resp_mail.((src * k) + sh.s_id) in
      let c_initiator = m.(0)
      and c_resp_pay = m.(1)
      and c_due = m.(2)
      and c_init_round = m.(3)
      and c_slot = m.(4) in
      let mw = ctx.sh_mw in
      let len = Shard.Buf.length c_initiator in
      for i = 0 to len - 1 do
        let ex = s_alloc ctx sh round in
        I32.set sh.s_initiator ex (Shard.Buf.unsafe_get c_initiator i);
        let pb = ex * mw and mb = i * mw in
        for w = 0 to mw - 1 do
          I32.set sh.s_resp_pay (pb + w) (Shard.Buf.unsafe_get c_resp_pay (mb + w))
        done;
        let due = Shard.Buf.unsafe_get c_due i in
        I32.set sh.s_due ex due;
        I32.set sh.s_init ex (Shard.Buf.unsafe_get c_init_round i);
        I32.set sh.s_slot ex (Shard.Buf.unsafe_get c_slot i);
        let due_slot = due mod ctx.sh_wheel in
        I32.set sh.s_next ex sh.s_response.(due_slot);
        sh.s_response.(due_slot) <- ex
      done;
      for c = 0 to resp_cols - 1 do
        Shard.Buf.clear m.(c)
      done
    end
  done;
  (* 1c: deliver responses due this round; an absent initiator cannot
     receive. *)
  let e = ref sh.s_response.(slot) in
  sh.s_response.(slot) <- -1;
  while !e >= 0 do
    let ex = !e in
    let next = I32.get sh.s_next ex in
    let initiator = I32.get sh.s_initiator ex in
    if ctx.sh_env.env_present_since ~node:initiator ~since:(I32.get sh.s_init ex) ~round
    then begin
      sh.s_deliveries <- sh.s_deliveries + 1;
      sh.s_payload <- sh.s_payload + ctx.sh_mw;
      if
        ctx.sh_kernel.Kernel.on_response ~u:initiator ~slot:(I32.get sh.s_slot ex)
          ~rtt:(I32.get sh.s_due ex - I32.get sh.s_init ex)
          ~buf:sh.s_resp_pay ~off:(ex * ctx.sh_mw)
      then s_mark ctx sh initiator
    end
    else sh.s_dropped <- sh.s_dropped + 1;
    s_free_ex sh ex;
    e := next
  done

(* Stage 2, second half: phase 2 initiations over the shard's own
   nodes, in ascending node order, over the kernel's directed contact
   rows.  [on_initiate] is the only point where a kernel may consume
   randomness or advance a cursor, so the RNG discipline the
   handler-based protocols established is preserved verbatim:
   push-pull draws one uniform neighbor index per node per round
   (whether informed or not), flooding advances a deterministic
   cursor, random-contact draws only when informed. *)
let stage2_initiate ctx sh round =
  let k = ctx.sh_k in
  (* Due dates [round + latency <= round + wheel - 1] must fit the
     pool's int32 cells; reject the run that could wrap rather than
     store a wrapped due round.  One compare per round. *)
  if round > I32.max_value - ctx.sh_wheel then
    raise (I32.Overflow { what = "exchange due round"; value = round + ctx.sh_wheel });
  let contact = ctx.sh_kernel.Kernel.contact in
  let row_ptr = contact.Csr.o_row_ptr
  and col = contact.Csr.o_col
  and lat = contact.Csr.o_lat in
  for u = sh.s_lo to sh.s_hi - 1 do
    sh.s_at <- u;
    if ctx.sh_env.env_alive ~node:u ~round then begin
      let base = I32.get row_ptr u in
      let deg = I32.get row_ptr (u + 1) - base in
      let informed_u = Bytes.get ctx.sh_informed u <> '\000' in
      let idx =
        ctx.sh_kernel.Kernel.on_initiate ~rngs:ctx.sh_rngs ~round ~u ~deg
          ~informed:informed_u
      in
      if idx >= 0 then begin
        let peer = I32.get col (base + idx) in
        sh.s_initiations <- sh.s_initiations + 1;
        if ctx.sh_env.env_drop ~initiator:u ~responder:peer ~round then
          sh.s_dropped <- sh.s_dropped + 1
        else begin
          let latency =
            max 1
              (ctx.sh_env.env_latency ~u ~v:peer ~latency:(I32.get lat (base + idx)) ~round)
          in
          if latency >= ctx.sh_wheel then
            (* An undeclared jitter overrunning the wheel is a failed
               run, not a harness crash: the typed exception lets a
               sweep record this job as [Failed] and keep going. *)
            raise (Jitter_overflow { latency; bound = ctx.sh_wheel - 1; round });
          let mw = ctx.sh_mw in
          let due = round + latency in
          let arr_slot = (round + ((latency + 1) / 2)) mod ctx.sh_wheel in
          if peer >= sh.s_lo && peer < sh.s_hi then begin
            let ex = s_alloc ctx sh round in
            I32.set sh.s_initiator ex u;
            I32.set sh.s_responder ex peer;
            (* Payload words are zeroed before the emission hook runs —
               the hook contract's "words arrive zeroed" — covering
               pool reuse after a free. *)
            let pb = ex * mw in
            for w = 0 to mw - 1 do
              I32.set sh.s_req_pay (pb + w) 0;
              I32.set sh.s_resp_pay (pb + w) 0
            done;
            ctx.sh_kernel.Kernel.req_pay ~u ~informed:informed_u ~buf:sh.s_req_pay ~off:pb;
            I32.set sh.s_due ex due;
            I32.set sh.s_init ex round;
            I32.set sh.s_slot ex idx;
            I32.set sh.s_next ex sh.s_arrival.(arr_slot);
            sh.s_arrival.(arr_slot) <- ex
          end
          else begin
            (* The emission hook writes into the shard's scratch run,
               then the words are copied into the mailbox column — the
               hook never sees a Buf, only flat I32 words. *)
            for w = 0 to mw - 1 do
              I32.set sh.s_scratch w 0
            done;
            ctx.sh_kernel.Kernel.req_pay ~u ~informed:informed_u ~buf:sh.s_scratch ~off:0;
            let dst = Shard.owner ~n:(Csr.n ctx.sh_csr) ~k peer in
            let m = ctx.sh_init_mail.((sh.s_id * k) + dst) in
            Shard.Buf.push m.(0) u;
            Shard.Buf.push m.(1) peer;
            let b = Shard.Buf.reserve m.(2) mw in
            for w = 0 to mw - 1 do
              Shard.Buf.set m.(2) (b + w) (I32.get sh.s_scratch w)
            done;
            Shard.Buf.push m.(3) due;
            Shard.Buf.push m.(4) arr_slot;
            Shard.Buf.push m.(5) round;
            Shard.Buf.push m.(6) idx;
            sh.s_remote_inits <- sh.s_remote_inits + 1
          end
        end
      end
    end
  done

(* The stage guard is a top-level five-argument function — passing the
   stage itself as a value keeps the round loop free of the per-round
   [fun () -> stage ...] closures the boxed engine allocated. *)
let guard sh rank f ctx r =
  try f ctx sh r with e -> if sh.s_fail = None then sh.s_fail <- Some (rank, sh.s_at, e)

(* A run: the shared context, its shards, the stopping rule the merge
   applies between rounds, and the state the merge commits at every
   round boundary.  {!create} builds the one-shard run that {!step}
   advances; {!broadcast_kernel} builds one per call. *)
type t = {
  ctx : shared;
  shards : shard array;
  metrics : metrics;
  tel : tel option;
  max_rounds : int;
  deadline : float option;
  started : float;
  on_round : (round:int -> informed:int -> unit) option;
  c_hist : hist;
  mutable c_round : int;  (* rounds fully executed *)
  mutable c_count : int;  (* informed nodes at the last round boundary *)
  mutable c_stop : bool;
  mutable c_rounds : int option;
  mutable c_fail : exn option;
}

(* The serial end of a round: surface the first failure in stage
   order, or sum the shards' counters into the run's metrics, record
   the round's telemetry and history, and decide whether to stop.
   Runs with every shard parked (at the round barrier, or trivially
   for one shard).  The local refs never escape, so the compiler keeps
   them in registers and the merge allocates nothing. *)
let merge t =
  let shards = t.shards and ctx = t.ctx in
  let k = ctx.sh_k in
  let r = t.c_round in
  (* First failure in stage order.  [worst] reuses the shards' own
     [Some] blocks, so the scan allocates only when a round actually
     failed. *)
  let worst = ref None in
  for i = 0 to k - 1 do
    let sh = shards.(i) in
    match (sh.s_fail, !worst) with
    | None, _ -> ()
    | Some _, None -> worst := sh.s_fail
    | Some f, Some w -> if f < w then worst := sh.s_fail
  done;
  match !worst with
  | Some (_, _, e) ->
      t.c_fail <- Some e;
      t.c_stop <- true
  | None ->
      let deliveries = ref 0
      and initiations = ref 0
      and dropped = ref 0
      and payload = ref 0
      and count = ref 0
      and in_flight = ref 0 in
      for i = 0 to k - 1 do
        let sh = shards.(i) in
        deliveries := !deliveries + sh.s_deliveries;
        initiations := !initiations + sh.s_initiations;
        dropped := !dropped + sh.s_dropped;
        payload := !payload + sh.s_payload;
        count := !count + sh.s_count;
        in_flight := !in_flight + sh.s_in_flight
      done;
      (* Cross-shard initiations parked in mailboxes are live
         exchanges a one-shard run would already have allocated in
         phase 2 — count them so the in-flight telemetry matches. *)
      for i = 0 to (k * k) - 1 do
        let m = ctx.sh_init_mail.(i) in
        if Array.length m > 0 then in_flight := !in_flight + Shard.Buf.length m.(0)
      done;
      (* This round's deltas against the totals committed last round. *)
      let m = t.metrics in
      let d = !deliveries - m.Engine.deliveries
      and i = !initiations - m.Engine.initiations
      and x = !dropped - m.Engine.dropped
      and p = !payload - m.Engine.payload_words in
      m.Engine.deliveries <- !deliveries;
      m.Engine.initiations <- !initiations;
      m.Engine.dropped <- !dropped;
      m.Engine.payload_words <- !payload;
      m.Engine.rounds <- r + 1;
      t.c_round <- r + 1;
      if !count <> t.c_count then hist_push t.c_hist (r + 1) !count;
      t.c_count <- !count;
      (* Shards keep their own counts during a round; the store's count
         is the merged total at every round boundary, so
         Kernel.completed_count agrees with the run. *)
      Rumor_store.set_count ctx.sh_kernel.Kernel.store !count;
      (match t.tel with
      | None -> ()
      | Some tel ->
          Gossip_obs.Registry.observe tel.h_deliveries d;
          Gossip_obs.Registry.observe tel.h_initiations i;
          Gossip_obs.Registry.add tel.c_kernel_deliveries d;
          Gossip_obs.Registry.add tel.c_kernel_initiations i;
          Gossip_obs.Registry.add tel.c_kernel_words p;
          Gossip_obs.Registry.observe tel.h_inflight !in_flight;
          Gossip_obs.Registry.record_max tel.g_inflight !in_flight;
          (match tel.tel_ring with
          | None -> ()
          | Some ring ->
              Gossip_obs.Ring.record ring ~round:r ~kind:Gossip_obs.Ring.kind_informed
                ~node:(-1) ~value:!count;
              Gossip_obs.Ring.record ring ~round:r ~kind:Gossip_obs.Ring.kind_deliveries
                ~node:(-1) ~value:d;
              Gossip_obs.Ring.record ring ~round:r ~kind:Gossip_obs.Ring.kind_initiations
                ~node:(-1) ~value:i;
              Gossip_obs.Ring.record ring ~round:r ~kind:Gossip_obs.Ring.kind_drops ~node:(-1)
                ~value:x;
              Gossip_obs.Ring.record ring ~round:r ~kind:Gossip_obs.Ring.kind_queue ~node:(-1)
                ~value:!in_flight));
      (* The observer runs inside the serial merge — one domain at a
         time, strictly between rounds, counts already committed — so
         it can never perturb the trajectory.  A raising observer
         aborts the run the way an expired deadline does. *)
      (match t.on_round with
      | Some f -> (
          try f ~round:(r + 1) ~informed:!count
          with e ->
            t.c_fail <- Some e;
            t.c_stop <- true)
      | None -> ());
      if t.c_stop then ()
      else if !count = Csr.n ctx.sh_csr then begin
        t.c_rounds <- Some (r + 1);
        t.c_stop <- true
      end
      else if r + 1 >= t.max_rounds then begin
        t.c_rounds <- None;
        t.c_stop <- true
      end
      else
        (* The wall-clock budget is cooperative and checked only
           between rounds: it can abort a run but never alters RNG
           draws or delivery order, so trajectory parity is
           untouched. *)
        match t.deadline with
        | Some d ->
            let now = Unix.gettimeofday () in
            if now > d then begin
              t.c_fail <-
                Some (Deadline_exceeded { round = r + 1; elapsed_s = now -. t.started });
              t.c_stop <- true
            end
        | None -> ()

(* Validate the inputs, seed the kernel's store, and lay out [k]
   shards over the node range. *)
let make ~k ?(env = static_env) ?wheel_latency ?(max_jitter = 0) ?telemetry ?pool_capacity
    ?informed ?deadline ?on_round ~max_rounds rng csr ~kernel ~source =
  let n = Csr.n csr in
  if source < 0 || source >= n then invalid_arg "Wheel_engine.create: source out of range";
  let bound = wheel_bound ?wheel_latency ~max_jitter csr in
  check_contact ~bound ~max_jitter kernel csr;
  let mw = check_kernel_shape ~n kernel in
  let pool_limit = pool_limit_of pool_capacity in
  let store = kernel.Kernel.store in
  seed_store ?informed ~n ~source store;
  let count0 = Rumor_store.count store in
  let ctx =
    {
      sh_csr = csr;
      sh_kernel = kernel;
      sh_env = env;
      sh_wheel = bound + 1;
      sh_mw = mw;
      sh_informed = Rumor_store.bytes store;
      (* Per-node RNG streams are split in node order — the one and
         only split sequence, shared by every kernel and shard count,
         so a fixed caller seed reproduces a trajectory across all of
         them.  Rng-free kernels (flood, rr-spanner, dtg) get no
         streams at all, keeping their runs byte-identical to the
         pre-kernel engine. *)
      sh_rngs =
        (if kernel.Kernel.uses_rng then Array.init n (fun _ -> Rng.split rng) else [||]);
      sh_k = k;
      sh_pool_limit = pool_limit;
      sh_init_mail = mailboxes k init_cols;
      sh_resp_mail = mailboxes k resp_cols;
    }
  in
  let bounds = Shard.bounds ~n ~k in
  let shards = Array.init k (fun i -> make_shard ctx i bounds.(i) bounds.(i + 1)) in
  let tel = resolve_tel ~kernel_name:kernel.Kernel.name ~msg_words:mw telemetry in
  (match telemetry with
  | Some reg when k > 1 ->
      Gossip_obs.Registry.set (Gossip_obs.Registry.gauge reg "wheel.shards") k
  | _ -> ());
  {
    ctx;
    shards;
    metrics =
      { rounds = 0; initiations = 0; deliveries = 0; payload_words = 0; rejected = 0; dropped = 0 };
    tel;
    max_rounds;
    deadline;
    started = (match deadline with None -> 0.0 | Some _ -> Unix.gettimeofday ());
    on_round;
    c_hist = hist_create 0 count0;
    c_round = 0;
    c_count = count0;
    c_stop = false;
    c_rounds = None;
    c_fail = None;
  }

let create_kernel ?env ?wheel_latency ?max_jitter ?telemetry ?pool_capacity ?informed rng csr
    ~kernel ~source =
  make ~k:1 ?env ?wheel_latency ?max_jitter ?telemetry ?pool_capacity ?informed
    ~max_rounds:max_int rng csr ~kernel ~source

let create ?env ?wheel_latency ?max_jitter ?telemetry ?pool_capacity ?informed rng csr ~protocol
    ~source =
  create_kernel ?env ?wheel_latency ?max_jitter ?telemetry ?pool_capacity ?informed rng csr
    ~kernel:(Kernel.of_protocol csr protocol) ~source

let current_round t = t.c_round

let metrics t = t.metrics

(* "Informed" in the engine's vocabulary means "completed the kernel's
   dissemination goal" — the store's byte, which for classic kernels
   is exactly the old informed bit. *)
let informed t u = Bytes.get t.ctx.sh_informed u <> '\000'

let informed_count t = t.c_count

(* One round of a one-shard run: the three stages back to back on the
   calling domain, then the merge. *)
let round_one t =
  let sh = t.shards.(0) and r = t.c_round in
  guard sh 0 stage1 t.ctx r;
  guard sh 1 stage2_deliver t.ctx r;
  guard sh 2 stage2_initiate t.ctx r;
  merge t

let step t =
  round_one t;
  match t.c_fail with Some e -> raise e | None -> ()

let broadcast_kernel ?env ?wheel_latency ?max_jitter ?deadline ?on_round ?telemetry
    ?pool_capacity ?informed ?(domains = 1) rng csr ~kernel ~source ~max_rounds =
  if domains < 1 then invalid_arg "Wheel_engine.broadcast: domains must be >= 1";
  let n = Csr.n csr in
  let k = min domains n in
  let t =
    make ~k ?env ?wheel_latency ?max_jitter ?telemetry ?pool_capacity ?informed ?deadline
      ?on_round ~max_rounds rng csr ~kernel ~source
  in
  (* Pre-loop checks: already complete, no round budget, deadline. *)
  if t.c_count = n then t.c_rounds <- Some 0
  else if max_rounds > 0 then begin
    (match deadline with
    | Some d ->
        let now = Unix.gettimeofday () in
        if now > d then raise (Deadline_exceeded { round = 0; elapsed_s = now -. t.started })
    | None -> ());
    let minor0 = match t.tel with None -> 0.0 | Some _ -> Gc.minor_words () in
    if k = 1 then
      while not t.c_stop do
        round_one t
      done
    else begin
      let bar1 = Shard.Barrier.create k and bar2 = Shard.Barrier.create k in
      let merge_serial () = merge t in
      let worker sh =
        while not t.c_stop do
          let r = t.c_round in
          guard sh 0 stage1 t.ctx r;
          Shard.Barrier.await bar1;
          guard sh 1 stage2_deliver t.ctx r;
          guard sh 2 stage2_initiate t.ctx r;
          Shard.Barrier.await_serial bar2 merge_serial
        done
      in
      let domains =
        Array.init (k - 1) (fun i -> Domain.spawn (fun () -> worker t.shards.(i + 1)))
      in
      worker t.shards.(0);
      Array.iter Domain.join domains
    end;
    (* Per-round minor-allocation gauge (the watchdog for an
       allocation-free round loop), measured from the orchestrating
       domain's minor heap: shard 0, the merges and the history
       bookkeeping. *)
    (match t.tel with
    | Some tel when t.metrics.Engine.rounds > 0 ->
        Gossip_obs.Registry.set tel.g_minor_words
          (gauge_of_minor_words
             ~total:(Gc.minor_words () -. minor0)
             ~rounds:t.metrics.Engine.rounds)
    | _ -> ());
    (* Cross-shard traffic totals, added once the run is over. *)
    match telemetry with
    | Some reg when k > 1 ->
        let total f = Array.fold_left (fun acc sh -> acc + f sh) 0 t.shards in
        Gossip_obs.Registry.add
          (Gossip_obs.Registry.counter reg "wheel.shard.remote.initiations")
          (total (fun sh -> sh.s_remote_inits));
        Gossip_obs.Registry.add
          (Gossip_obs.Registry.counter reg "wheel.shard.remote.responses")
          (total (fun sh -> sh.s_remote_resps))
    | _ -> ()
  end;
  (match t.c_fail with Some e -> raise e | None -> ());
  {
    rounds = t.c_rounds;
    metrics = t.metrics;
    history = hist_to_list t.c_hist;
    informed = t.ctx.sh_informed;
  }

let broadcast ?env ?wheel_latency ?max_jitter ?deadline ?on_round ?telemetry ?pool_capacity
    ?informed ?domains rng csr ~protocol ~source ~max_rounds =
  broadcast_kernel ?env ?wheel_latency ?max_jitter ?deadline ?on_round ?telemetry ?pool_capacity
    ?informed ?domains rng csr ~kernel:(Kernel.of_protocol csr protocol) ~source ~max_rounds
