(* A sweep job, replayed call by call.

   [prepare] and [broadcast] repeat what [Sweep.run_job] does for the
   protocols the workloads use, one public call at a time, so the
   benchmark can time set-up apart from the engine call and open a
   span around each layer.  The traced run checks the replay against
   [Sweep.run_job] itself, so the two cannot drift apart unnoticed. *)

open Gossip_scale
module Rng = Gossip_util.Rng
module Sweep = Gossip_sweep.Sweep
module Scenario = Gossip_dyn.Scenario
module Engine = Gossip_sim.Engine
open Ledger

type prepared = {
  job : Sweep.job;
  csr : Csr.t;
  source : int;
  oriented : Csr.oriented option;  (** the Baswana–Sen orientation of an RR job *)
  mutable kernel : Kernel.t option;  (** the RR kernel, consumed by the first engine run *)
  compiled : Scenario.compiled option;
}

let span = Tracer.span

let rr_kernel ?tr o =
  span tr ~layer:"core.spanner" "Kernel.rr_broadcast" (fun () ->
      Kernel.rr_broadcast ~k:(Csr.oriented_max_latency o) o)

(* The canonical stretch parameter ⌈log₂ n⌉ that [Sweep.run_job] uses
   for [stretch_k = 0]. *)
let canonical_stretch n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (2 * p) in
  max 1 (go 0 1)

let prepare ?tr (job : Sweep.job) =
  let csr =
    span tr ~layer:"scale.csr" "Sweep.build" (fun () ->
        Sweep.build job.family ~n:job.n ~seed:job.seed)
  in
  let csr =
    match job.latency with
    | None -> csr
    | Some spec ->
        span tr ~layer:"scale.csr" "Csr.with_latencies" (fun () ->
            Csr.with_latencies (Rng.of_int (job.seed + 7)) spec csr)
  in
  let n = Csr.n csr in
  let source = ((job.seed mod n) + n) mod n in
  let oriented =
    match job.protocol with
    | Wheel_engine.Rr_spanner { stretch_k } ->
        let k = if stretch_k > 0 then stretch_k else canonical_stretch n in
        let g = span tr ~layer:"core.spanner" "Csr.to_graph" (fun () -> Csr.to_graph csr) in
        let sp =
          span tr ~layer:"core.spanner" "Spanner.build" (fun () ->
              Gossip_core.Spanner.build (Rng.of_int (job.seed + 29)) g ~k ~n_hat:n ())
        in
        Some
          (span tr ~layer:"core.spanner" "Csr.of_oriented_spanner" (fun () ->
               Csr.of_oriented_spanner sp.Gossip_core.Spanner.out_edges))
    | Wheel_engine.Push_pull | Wheel_engine.K_rumor _ -> None
    | p -> invalid_arg ("perfbench: no replay for protocol " ^ Wheel_engine.protocol_name p)
  in
  let kernel = Option.map (rr_kernel ?tr) oriented in
  let compiled =
    Option.map
      (fun s ->
        span tr ~layer:"dyn" "Scenario.compile" (fun () ->
            Scenario.compile ?oriented s ~csr ~source))
      job.scenario
  in
  { job; csr; source; oriented; kernel; compiled }

(* A kernel holds its run's rumor state, so every engine run after the
   first needs a fresh one. *)
let take_kernel ?tr p =
  match (p.kernel, p.oriented) with
  | Some k, _ ->
      p.kernel <- None;
      Some k
  | None, Some o -> Some (rr_kernel ?tr o)
  | None, None -> None

(* Makes the kernel of the next engine run ahead of it, so that a
   rerun's engine call is timed without the kernel's construction, as
   the first run's is. *)
let rearm p = if p.kernel = None then p.kernel <- Option.map rr_kernel p.oriented

let env p = Option.map (fun c -> c.Scenario.env) p.compiled
let wheel p = Option.map (fun c -> c.Scenario.wheel_latency) p.compiled
let engine_rng p = Rng.of_int (p.job.seed + 17)

(* The engine call of [Sweep.run_job]. *)
let broadcast ?tr ?telemetry ?on_round ?(domains = 1) p =
  let layer = if domains > 1 then "scale.shard" else "scale.wheel_engine" in
  let max_rounds = p.job.max_rounds and source = p.source in
  match take_kernel ?tr p with
  | Some kernel ->
      span tr ~layer "Wheel_engine.broadcast_kernel" (fun () ->
          Wheel_engine.broadcast_kernel ?env:(env p) ?wheel_latency:(wheel p) ?telemetry
            ?on_round ~domains (engine_rng p) p.csr ~kernel ~source ~max_rounds)
  | None ->
      span tr ~layer "Wheel_engine.broadcast" (fun () ->
          Wheel_engine.broadcast ?env:(env p) ?wheel_latency:(wheel p) ?telemetry ?on_round
            ~domains (engine_rng p) p.csr ~protocol:p.job.protocol ~source ~max_rounds)

(* Wraps every environment closure with a call counter. *)
let counting_env (e : Wheel_engine.env) calls =
  let tick () = incr calls in
  {
    Wheel_engine.env_alive =
      (fun ~node ~round ->
        tick ();
        e.env_alive ~node ~round);
    env_present_since =
      (fun ~node ~since ~round ->
        tick ();
        e.env_present_since ~node ~since ~round);
    env_drop =
      (fun ~initiator ~responder ~round ->
        tick ();
        e.env_drop ~initiator ~responder ~round);
    env_latency =
      (fun ~u ~v ~latency ~round ->
        tick ();
        e.env_latency ~u ~v ~latency ~round);
    env_rejoin =
      (fun ~node ~round ->
        tick ();
        e.env_rejoin ~node ~round);
    env_has_churn = e.env_has_churn;
  }

(* The sequential round loop driven one [step] at a time — the loop
   [Wheel_engine.broadcast] runs at one domain, with the same stopping
   rule and informed-count history.  Returns the result and the
   minor-heap words the [step] calls allocated. *)
let step_loop ?tr ?telemetry ?env_calls p =
  let env =
    match (env p, env_calls) with
    | Some e, Some calls -> Some (counting_env e calls)
    | e, _ -> e
  in
  let wheel_latency = wheel p and source = p.source in
  let kernel = take_kernel ?tr p in
  let t =
    span tr ~layer:"scale.wheel_engine" "Wheel_engine.create" (fun () ->
        match kernel with
        | Some kernel ->
            Wheel_engine.create_kernel ?env ?wheel_latency ?telemetry (engine_rng p) p.csr
              ~kernel ~source
        | None ->
            Wheel_engine.create ?env ?wheel_latency ?telemetry (engine_rng p) p.csr
              ~protocol:p.job.protocol ~source)
  in
  let n = Csr.n p.csr in
  let minor = ref 0.0 in
  let history = ref [ (0, Wheel_engine.informed_count t) ] in
  while Wheel_engine.informed_count t < n && Wheel_engine.current_round t < p.job.max_rounds do
    span tr ~layer:"scale.wheel_engine" "Wheel_engine.step" (fun () ->
        let m0 = Gc.minor_words () in
        Wheel_engine.step t;
        let m1 = Gc.minor_words () in
        minor := !minor +. (m1 -. m0));
    let c = Wheel_engine.informed_count t in
    if c <> snd (List.hd !history) then history := (Wheel_engine.current_round t, c) :: !history
  done;
  let count = Wheel_engine.informed_count t in
  ( {
      Wheel_engine.rounds = (if count = n then Some (Wheel_engine.current_round t) else None);
      metrics = Wheel_engine.metrics t;
      history = List.rev !history;
      informed = Bytes.init n (fun v -> if Wheel_engine.informed t v then '\001' else '\000');
    },
    !minor )

(* What a run must reproduce exactly: the trajectory, the counters and
   the final completion set (one 0/1 byte per node). *)
type summary = {
  rounds : int option;
  initiations : int;
  deliveries : int;
  payload_words : int;
  dropped : int;
  history : (int * int) list;
  completed : Bytes.t;
}

let summarize (r : Wheel_engine.result) =
  let m = r.Wheel_engine.metrics in
  {
    rounds = r.rounds;
    initiations = m.Engine.initiations;
    deliveries = m.Engine.deliveries;
    payload_words = m.Engine.payload_words;
    dropped = m.Engine.dropped;
    history = r.history;
    completed = Bytes.map (fun c -> if c <> '\000' then '\001' else '\000') r.informed;
  }

let holders s = Bytes.fold_left (fun acc c -> if c <> '\000' then acc + 1 else acc) 0 s.completed

(* The correctness checks every job must pass: it completed within its
   round cap, every one of the [n] nodes holds the rumor (all [k]
   rumors for a k-rumor job), and each initiation delivered at most a
   request and a response. *)
let verify ~n s =
  let* () = require (s.rounds <> None) "capped: the round limit passed before completion" in
  let* () =
    require (Bytes.length s.completed = n && holders s = n)
      (Printf.sprintf "%d of %d nodes completed" (holders s) n)
  in
  require
    (s.deliveries <= 2 * s.initiations)
    (Printf.sprintf "%d deliveries exceed 2 x %d initiations" s.deliveries s.initiations)

let same ~what a b =
  require (a = b)
    (Printf.sprintf "%s: rounds %s/%s, deliveries %d/%d, %d/%d completed" what
       (match a.rounds with Some r -> string_of_int r | None -> "capped")
       (match b.rounds with Some r -> string_of_int r | None -> "capped")
       a.deliveries b.deliveries (holders a) (holders b))

(* [Sweep.run_job]'s outcome carries no informed set; its rounds and
   counters must match the replay's. *)
let same_outcome (o : Sweep.outcome) s =
  let m = o.Sweep.metrics in
  require
    (o.Sweep.rounds = s.rounds
    && m.Engine.initiations = s.initiations
    && m.Engine.deliveries = s.deliveries
    && m.Engine.payload_words = s.payload_words
    && m.Engine.dropped = s.dropped)
    "Sweep.run_job and the replay disagree on rounds or counters"
