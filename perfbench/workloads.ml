(* The three workloads, each with an untraced run (the end-to-end
   metrics) and a traced run (the per-layer metrics).  README.md in
   this directory says why each workload was chosen. *)

open Gossip_scale
module Sweep = Gossip_sweep.Sweep
module Stats = Gossip_util.Stats
module Gen = Gossip_graph.Gen
module Registry = Gossip_obs.Registry
module Scenario = Gossip_dyn.Scenario
module P = Gossip_serve.Protocol
open Ledger

let now = Unix.gettimeofday
let say = Report.say

(* Metric names and units; BENCHMARK.json lists the same. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("job_s", "s");
    ("ns_per_initiation", "ns");
    ("jobs_per_s", "1/s");
    ("peak_rss_mb", "MiB");
    ("rounds", "count");
    ("deliveries", "count");
  ]

let per_layer =
  [
    ("csr.build_s", "s");
    ("csr.latency_s", "s");
    ("csr.bytes_per_edge", "B");
    ("spanner.to_graph_s", "s");
    ("spanner.build_s", "s");
    ("spanner.orient_s", "s");
    ("spanner.minor_mwords", "Mwords");
    ("spanner.out_edges", "count");
    ("engine.create_s", "s");
    ("engine.round_ns.p50", "ns");
    ("engine.round_ns.p90", "ns");
    ("engine.ns_per_delivery", "ns");
    ("engine.minor_words_per_round", "words");
    ("engine.inflight_max", "count");
    ("shard.round_ns.p50", "ns");
    ("shard.round_ns.p90", "ns");
    ("shard.remote_initiations", "count");
    ("shard.remote_responses", "count");
    ("shard.edge_skew", "ratio");
    ("shard.speedup_vs_seq", "x");
    ("scenario.compile_s", "s");
    ("env.calls_per_initiation", "calls/init");
    ("kernel.words_per_delivery", "words");
    ("sweep.run_job_s", "s");
    ("serve.submit_rpc_s", "s");
    ("serve.queue_wait_s", "s");
    ("serve.overhead_s", "s");
    ("serve.journal_bytes_per_job", "B");
    ("trace.overhead_frac", "ratio");
    ("trace.uncovered_frac", "ratio");
  ]

type sizes = { ba_n : int; rr_n : int; ring_n : int; ws_n : int }

let full = { ba_n = 50_000; rr_n = 50_000; ring_n = 4000; ws_n = 20_000 }
let tiny = { ba_n = 3000; rr_n = 2000; ring_n = 320; ws_n = 600 }

type workload = Pushpull_ba_seq | Rrspanner_ba_2dom | Gossipd_churn

let workloads =
  [
    ("pushpull-ba-seq", Pushpull_ba_seq);
    ("rrspanner-ba-2dom", Rrspanner_ba_2dom);
    ("gossipd-churn", Gossipd_churn);
  ]

type config = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  sizes : sizes;
  scenario : string;  (** path of the gossipd-churn scenario file *)
  dir : string;  (** scratch directory for the daemon's socket and journal *)
  corrupt : Replay.summary -> Replay.summary;
      (** applied to every engine result before its checks; the
          identity except in the benchmark's own tests *)
}

(* Per-layer samples: every observation of a metric, reported as the median. *)
type samples = (string, float list) Hashtbl.t

let add (samples : samples) name v =
  Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let median = function [] -> nan | l -> Stats.median (Array.of_list l)
let median_by f l = median (List.map f l)
let sum = Array.fold_left ( +. ) 0.0

(* A run must end within 180 s, so repetitions stop well before. *)
let hard_limit = 150.0

(* Calls [f i] for i = 0, 1, ... until [seconds] have passed, counting
   on each repetition to last as long as the previous one; at least
   [min_reps] times unless that would pass [hard_limit]. *)
let repeat ~seconds ~min_reps f =
  let started = now () in
  let rec go i last =
    let elapsed = now () -. started in
    if (i < min_reps && elapsed +. last < hard_limit) || elapsed +. last <= seconds then begin
      let t = now () in
      f i;
      go (i + 1) (now () -. t)
    end
  in
  go 0 0.0

(* ------------------------------------------------------------------ *)
(* Jobs *)

let ba_job n ~seed protocol =
  {
    Sweep.family = Sweep.Barabasi_albert { attach = 3 };
    n;
    seed;
    protocol;
    latency = Some (Gen.Uniform (1, 8));
    scenario = None;
    max_rounds = 1000;
  }

(* gossipd-churn alternates two job kinds. *)
let gossipd_specs cfg =
  [
    {
      P.family = Sweep.Braided_ring { size = 16; bridges = 4; bridge_latency = 8 };
      n = cfg.sizes.ring_n;
      protocol = Wheel_engine.Rr_spanner { stretch_k = 0 };
      trials = 1;
      base_seed = cfg.seed;
      max_rounds = 20_000;
      latency = None;
      scenario = Some (Scenario.load cfg.scenario);
    };
    {
      P.family = Sweep.Watts_strogatz { k = 6; beta = 0.05 };
      n = cfg.sizes.ws_n;
      protocol = Wheel_engine.K_rumor { k = 16; budget = 4 };
      trials = 1;
      base_seed = cfg.seed + 1;
      max_rounds = 2000;
      latency = None;
      scenario = None;
    };
  ]

let job_of_spec spec = List.hd (P.jobs_of_spec spec)

type rep = { setup_s : float; engine_s : float; job_s : float; s : Replay.summary }

(* One job, checked and timed; set-up is everything before the engine call. *)
let timed_job ?tr ?job cfg ~engine j =
  Tracer.span tr ?job ~layer:"bench" "job" (fun () ->
      let t0 = now () in
      let p = Replay.prepare ?tr j in
      let t1 = now () in
      let s = cfg.corrupt (engine p) in
      let t2 = now () in
      let* () = Replay.verify ~n:(Csr.n p.Replay.csr) s in
      Ok ({ setup_s = t1 -. t0; engine_s = t2 -. t1; job_s = now () -. t0; s }, p))

let untraced_engine ~domains p = Replay.summarize (Replay.broadcast ~domains p)

(* CSR arrays, contact rows of an RR job, the engine's 16 B of RNG
   state plus one rumor-store byte per node, and 32 B per exchange in
   flight at the peak when the traced run has counted them. *)
let working_set ?(inflight_max = 0) (p : Replay.prepared) =
  let n = Csr.n p.csr in
  let contact =
    match p.oriented with
    | Some o -> 4 * ((n + 1) + (2 * Csr.oriented_edge_count o))
    | None -> 0
  in
  (8 * Csr.memory_words p.csr) + contact + (17 * n) + (32 * inflight_max)

let report_rep i r =
  say "  rep %d: replay set-up %.3f s, engine %.3f s, job %.3f s, %s rounds, %d initiations, %d deliveries"
    i r.setup_s r.engine_s r.job_s
    (match r.s.Replay.rounds with Some x -> string_of_int x | None -> "capped")
    r.s.Replay.initiations r.s.Replay.deliveries

let e2e ~setup_s ~job_s ~ns_per_initiation ~jobs_per_s ~rounds ~deliveries =
  [
    ("setup_s", setup_s);
    ("job_s", job_s);
    ("ns_per_initiation", ns_per_initiation);
    ("jobs_per_s", jobs_per_s);
    ("peak_rss_mb", Report.peak_rss_mb ());
    ("rounds", rounds);
    ("deliveries", deliveries);
  ]

(* ------------------------------------------------------------------ *)
(* The two sweep-job workloads *)

(* A run of a job workload cycles through [jobs_per_run] jobs whose
   seeds are made from [--seed].  Round counts differ by a few from
   seed to seed, so a run over several graphs reports job times that
   depend less on which seed it was given. *)
let jobs_per_run = 4

let run_seeds seed = List.init jobs_per_run (fun j -> (jobs_per_run * seed) + j)

(* Engine calls per replay: the first after set-up, then reruns on the
   same prepared graph.  Set-up of an RR job takes several times its
   engine call, so the reruns give [ns_per_initiation] more samples
   per repetition. *)
let engine_runs = 3

(* Repeats the jobs in turn.  A repetition runs [Sweep.run_job]
   itself, which gives [job_s], and the call-by-call replay, which
   splits set-up from the engine call and yields the informed set the
   checks need; the two alternate which goes first, and each starts
   from a compacted heap.  The replay's engine call is then rerun.
   [Sweep.run_job] must agree with the replay, each rerun must
   reproduce the replay, and every repetition of a job must reproduce
   its first exactly. *)
let job_untraced cfg ledger ~name ~jobs ~domains =
  let jobs = Array.of_list jobs in
  let k = Array.length jobs in
  let reps = ref [] and first = Array.make k None and engine_ns = ref [] in
  (* the engine times of [count] reruns of replay [r]'s engine call *)
  let rec reruns (r : rep) p count acc =
    if count = 0 then Ok acc
    else begin
      Replay.rearm p;
      Gc.compact ();
      let t = now () in
      let s = cfg.corrupt (untraced_engine ~domains p) in
      let engine_s = now () -. t in
      let* () = Replay.same ~what:"an engine rerun differs from the replay" r.s s in
      reruns r p (count - 1) (engine_s :: acc)
    end
  in
  repeat ~seconds:cfg.seconds ~min_reps:k (fun i ->
      let job = jobs.(i mod k) in
      let direct () =
        Gc.compact ();
        let t0 = now () in
        let o = Sweep.run_job ~domains job in
        (o, now () -. t0)
      in
      let replay () =
        Gc.compact ();
        timed_job cfg ~engine:(untraced_engine ~domains) job
      in
      match
        Ledger.attempt ledger "job" (fun () ->
            let (o, direct_s), replayed =
              if i / k mod 2 = 0 then
                let d = direct () in
                (d, replay ())
              else
                let r = replay () in
                (direct (), r)
            in
            let* r, p = replayed in
            let* () = Replay.same_outcome o r.s in
            let* engine_s = reruns r p (engine_runs - 1) [ r.engine_s ] in
            let* () =
              match first.(i mod k) with
              | None ->
                  if i = 0 then Report.working_set ~workload:name (working_set p);
                  first.(i mod k) <- Some r.s;
                  Ok ()
              | Some f -> Replay.same ~what:"a repetition differs from the first" f r.s
            in
            Ok (r, direct_s, engine_s))
      with
      | Some (r, direct_s, engine_s) ->
          report_rep i r;
          say "  rep %d: Sweep.run_job %.3f s" i direct_s;
          let per_init e = 1e9 *. e /. float_of_int r.s.Replay.initiations in
          engine_ns := List.map per_init engine_s @ !engine_ns;
          reps := (r, direct_s) :: !reps
      | None -> ());
  let reps = !reps in
  (* mean over the run's jobs of a count of each job's first repetition *)
  let mean_count f =
    if Array.exists Option.is_none first then nan
    else
      float_of_int (Array.fold_left (fun acc s -> acc + f (Option.get s)) 0 first)
      /. float_of_int k
  in
  e2e
    ~setup_s:(median_by (fun (r, _) -> r.setup_s) reps)
    ~job_s:(median_by snd reps)
    ~ns_per_initiation:(median !engine_ns)
    ~jobs_per_s:
      (float_of_int (List.length reps) /. List.fold_left (fun acc (_, d) -> acc +. d) 0.0 reps)
    ~rounds:(mean_count (fun s -> Option.value ~default:0 s.Replay.rounds))
    ~deliveries:(mean_count (fun s -> s.Replay.deliveries))

let counter reg name = Option.value ~default:0 (List.assoc_opt name (Registry.counters reg))
let gauge reg name = Option.value ~default:0 (List.assoc_opt name (Registry.gauges reg))

let words_on_wire reg =
  List.fold_left
    (fun acc (name, v) ->
      if String.ends_with ~suffix:".words_on_wire" name then acc + v else acc)
    0 (Registry.counters reg)

let of_job spans job = List.filter (fun s -> s.Tracer.job = job) spans

(* Layer samples read from the spans of one traced job. *)
let layer_samples samples spans =
  let total l = List.fold_left (fun acc s -> acc +. Tracer.duration s) 0.0 l in
  List.iter
    (fun (span, metric) ->
      match Tracer.named spans span with [] -> () | l -> add samples metric (total l))
    [
      ("Sweep.build", "csr.build_s");
      ("Csr.with_latencies", "csr.latency_s");
      ("Csr.to_graph", "spanner.to_graph_s");
      ("Spanner.build", "spanner.build_s");
      ("Csr.of_oriented_spanner", "spanner.orient_s");
      ("Scenario.compile", "scenario.compile_s");
    ];
  if Tracer.named spans "Spanner.build" <> [] then
    add samples "spanner.minor_mwords"
      (List.fold_left
         (fun acc s ->
           match s.Tracer.name with
           | "Csr.to_graph" | "Spanner.build" | "Csr.of_oriented_spanner" ->
               acc +. s.Tracer.minor_words
           | _ -> acc)
         0.0 spans
      /. 1e6);
  match Tracer.named spans "job" with
  | [] -> ()
  | roots ->
      let selfs = Tracer.self_times spans in
      let root_self =
        List.fold_left
          (fun acc (s, self) -> if s.Tracer.name = "job" then acc +. self else acc)
          0.0 selfs
      in
      add samples "trace.uncovered_frac" (root_self /. total roots)

(* Samples of the sequential round loop, from [step_loop] spans. *)
let engine_samples samples spans ~deliveries ~minor ~inflight_max =
  let steps = Tracer.durations spans "Wheel_engine.step" in
  if Array.length steps > 0 then begin
    add samples "engine.create_s" (sum (Tracer.durations spans "Wheel_engine.create"));
    add samples "engine.round_ns.p50" (1e9 *. Stats.percentile steps 50.0);
    add samples "engine.round_ns.p90" (1e9 *. Stats.percentile steps 90.0);
    add samples "engine.ns_per_delivery" (1e9 *. sum steps /. float_of_int deliveries);
    add samples "engine.minor_words_per_round"
      (float_of_int
         (Wheel_engine.gauge_of_minor_words ~total:minor ~rounds:(Array.length steps)));
    add samples "engine.inflight_max" (float_of_int inflight_max)
  end

let csr_samples samples (p : Replay.prepared) =
  add samples "csr.bytes_per_edge"
    (float_of_int (8 * Csr.memory_words p.csr) /. float_of_int (2 * Csr.m p.csr));
  match p.oriented with
  | Some o -> add samples "spanner.out_edges" (float_of_int (Csr.oriented_edge_count o))
  | None -> ()

(* max over mean contact edges per [Shard.bounds] shard *)
let edge_skew (p : Replay.prepared) ~domains =
  let n = Csr.n p.csr in
  let degree =
    match p.oriented with Some o -> Csr.oriented_out_degree o | None -> Csr.degree p.csr
  in
  let bounds = Shard.bounds ~n ~k:domains in
  let edges =
    Array.init domains (fun i ->
        let e = ref 0 in
        for v = bounds.(i) to bounds.(i + 1) - 1 do
          e := !e + degree v
        done;
        float_of_int !e)
  in
  Array.fold_left max 0.0 edges /. (sum edges /. float_of_int domains)

let deltas ts =
  let a = Array.of_list (List.rev ts) in
  Array.init (max 0 (Array.length a - 1)) (fun i -> a.(i + 1) -. a.(i))

(* Each repetition runs the job untraced, then replays it traced and
   checks the replay reproduced the untraced run.  The first repetition
   also checks the replay against [Sweep.run_job] and, when sharded,
   reruns the engine at one domain, which must match bit for bit. *)
let job_traced cfg ledger samples ~name ~job ~domains =
  let tracer = Tracer.create () in
  let tr = Some tracer in
  repeat ~seconds:cfg.seconds ~min_reps:1 (fun i ->
      Gc.compact ();
      let u =
        Ledger.attempt ledger "untraced job" (fun () ->
            let* r, _ = timed_job cfg ~engine:(untraced_engine ~domains) job in
            Ok r)
      in
      Gc.compact ();
      let reg = Registry.create () in
      let round_ends = ref [] and minor = ref 0.0 in
      let engine p =
        if domains > 1 then
          Replay.summarize
            (Replay.broadcast ?tr ~telemetry:reg ~domains
               ~on_round:(fun ~round:_ ~informed:_ -> round_ends := now () :: !round_ends)
               p)
        else begin
          let r, m = Replay.step_loop ?tr ~telemetry:reg p in
          minor := m;
          Replay.summarize r
        end
      in
      let traced =
        Ledger.attempt ledger "traced job" (fun () ->
            let* t, p = timed_job ?tr ~job:i cfg ~engine job in
            let* () =
              match u with
              | Some u -> Replay.same ~what:"the traced replay differs from the untraced run" u.s t.s
              | None -> Ok ()
            in
            Ok (t, p))
      in
      match (u, traced) with
      | Some u, Some (t, p) ->
          say "  pair %d: untraced job %.3f s, traced job %.3f s" i u.job_s t.job_s;
          add samples "trace.overhead_frac" (t.job_s /. u.job_s);
          let spans = of_job (Tracer.spans tracer) i in
          layer_samples samples spans;
          csr_samples samples p;
          add samples "kernel.words_per_delivery"
            (float_of_int (words_on_wire reg) /. float_of_int t.s.Replay.deliveries);
          if domains = 1 then
            engine_samples samples spans ~deliveries:t.s.Replay.deliveries ~minor:!minor
              ~inflight_max:(gauge reg "wheel.inflight.max")
          else begin
            let rounds = deltas !round_ends in
            if Array.length rounds > 0 then begin
              add samples "shard.round_ns.p50" (1e9 *. Stats.percentile rounds 50.0);
              add samples "shard.round_ns.p90" (1e9 *. Stats.percentile rounds 90.0)
            end;
            add samples "shard.remote_initiations"
              (float_of_int (counter reg "wheel.shard.remote.initiations"));
            add samples "shard.remote_responses"
              (float_of_int (counter reg "wheel.shard.remote.responses"));
            add samples "shard.edge_skew" (edge_skew p ~domains)
          end;
          if i = 0 then begin
            Report.working_set ~pool:true ~workload:name
              (working_set ~inflight_max:(gauge reg "wheel.inflight.max") p);
            let extra = 1_000_000 in
            ignore
              (Ledger.attempt ledger "Sweep.run_job" (fun () ->
                   let o =
                     Tracer.span tr ~job:extra ~layer:"sweep" "Sweep.run_job" (fun () ->
                         Sweep.run_job ~domains job)
                   in
                   add samples "sweep.run_job_s" o.Sweep.elapsed_s;
                   Replay.same_outcome o t.s));
            if domains > 1 then
              ignore
                (Ledger.attempt ledger "1-domain rerun" (fun () ->
                     let reg1 = Registry.create () in
                     let r, minor =
                       Tracer.span tr ~job:(extra + 1) ~layer:"bench" "rerun" (fun () ->
                           Replay.step_loop ?tr ~telemetry:reg1 p)
                     in
                     let s1 = cfg.corrupt (Replay.summarize r) in
                     let spans1 = of_job (Tracer.spans tracer) (extra + 1) in
                     engine_samples samples spans1 ~deliveries:s1.Replay.deliveries ~minor
                       ~inflight_max:(gauge reg1 "wheel.inflight.max");
                     let seq_s =
                       sum (Tracer.durations spans1 "Wheel_engine.create")
                       +. sum (Tracer.durations spans1 "Wheel_engine.step")
                     in
                     add samples "shard.speedup_vs_seq"
                       (seq_s /. sum (Tracer.durations spans "Wheel_engine.broadcast_kernel"));
                     Replay.same ~what:"the 2-domain run differs from its 1-domain rerun" t.s s1))
          end
      | _ -> ());
  tracer

(* ------------------------------------------------------------------ *)
(* gossipd-churn *)

let realized_n (spec : P.spec) = Sweep.realized_n spec.family ~n:spec.n

(* Checks each finished daemon job and that every job of a kind
   reported the same rounds and deliveries as the first, which [first]
   holds per kind. *)
let check_daemon_jobs ?(first = Hashtbl.create 2) ledger specs finished =
  List.filter_map
    (fun (kind, r) ->
      Ledger.attempt ledger "daemon job" (fun () ->
          let* f = r in
          let* row = Daemon.check ~n:(realized_n (List.nth specs kind)) f in
          let* () =
            match Hashtbl.find_opt first kind with
            | None ->
                Hashtbl.add first kind row;
                Ok ()
            | Some (r0 : Daemon.row) ->
                require
                  (r0.rounds = row.rounds && r0.deliveries = row.deliveries)
                  "a daemon job differs from the first of its kind"
          in
          Ok (f, row)))
    finished

(* The untraced gossipd run is cut into slices.  Each slice first
   starts and stops [pongs_per_slice] throw-away daemons, timing each
   from start to its first [Pong] on an otherwise idle machine, then
   drives the main daemon's closed loop for [slice_s].  So the set-up
   samples are spread over the whole run rather than taken in one
   burst at its start. *)
let slice_s = 8.0
let pongs_per_slice = 8

let gossipd_untraced cfg ledger =
  let specs = gossipd_specs cfg in
  let started = now () in
  List.iter
    (fun spec ->
      let p = Replay.prepare (job_of_spec spec) in
      Report.working_set ~workload:(Wheel_engine.protocol_name spec.P.protocol) (working_set p))
    specs;
  let pong tag =
    let d, dt = Daemon.start_until_pong ~dir:cfg.dir ~tag in
    Daemon.stop d;
    dt
  in
  let d, _ = Daemon.start_until_pong ~dir:cfg.dir ~tag:"main" in
  let pongs = ref [] and measured = ref [] and loop_s = ref 0.0 in
  let first = Hashtbl.create 2 in
  Fun.protect
    ~finally:(fun () -> Daemon.stop d)
    (fun () ->
      (* One job of each kind warms up and is checked but not timed. *)
      ignore
        (check_daemon_jobs ~first ledger specs
           (Daemon.closed_loop d ~specs ~min_jobs:1 ~max_jobs:1 ~until:0.0));
      let slice = ref 0 in
      while !slice = 0 || now () < started +. cfg.seconds do
        for i = 1 to pongs_per_slice do
          pongs := pong (Printf.sprintf "setup%d-%d" !slice i) :: !pongs
        done;
        let t0 = now () in
        let jobs =
          Daemon.closed_loop d ~specs ~min_jobs:1 ~max_jobs:max_int
            ~until:(min (t0 +. slice_s) (started +. cfg.seconds))
        in
        loop_s := !loop_s +. (now () -. t0);
        measured := !measured @ check_daemon_jobs ~first ledger specs jobs;
        incr slice
      done);
  let measured = !measured in
  List.iteri
    (fun i ((f : Daemon.finished), (row : Daemon.row)) ->
      say "  job %d (kind %d): submit to done %.3f s, daemon elapsed %.3f s, %d rounds" i f.kind
        (f.t_done -. f.t_submit) row.elapsed_s row.rounds)
    measured;
  let pair f =
    match (Hashtbl.find_opt first 0, Hashtbl.find_opt first 1) with
    | Some a, Some b -> float_of_int (f a + f b)
    | _ -> nan
  in
  let total f = List.fold_left (fun acc (_, (r : Daemon.row)) -> acc +. f r) 0.0 measured in
  e2e ~setup_s:(median !pongs)
    ~job_s:(median_by (fun ((f : Daemon.finished), _) -> f.t_done -. f.t_submit) measured)
    ~ns_per_initiation:
      (1e9 *. total (fun r -> r.elapsed_s) /. total (fun r -> float_of_int r.initiations))
    ~jobs_per_s:(float_of_int (List.length measured) /. !loop_s)
    ~rounds:(pair (fun (r : Daemon.row) -> r.rounds))
    ~deliveries:(pair (fun (r : Daemon.row) -> r.deliveries))

(* The traced run starts one daemon, runs two jobs of each kind in the
   closed loop and one of each alone, checks them against direct
   [Sweep.run_job] calls, then replays both kinds untraced and traced
   in pairs until the time is up. *)
let gossipd_traced cfg ledger samples =
  let specs = gossipd_specs cfg in
  let jobs = List.map job_of_spec specs in
  let tracer = Tracer.create () in
  let tr = Some tracer in
  let started = now () in
  let d, _ = Daemon.start_until_pong ~dir:cfg.dir ~tag:"traced" in
  let loop, isolated =
    Fun.protect
      ~finally:(fun () -> Daemon.stop d)
      (fun () ->
        let loop =
          Daemon.closed_loop ?tr
            ~job_id:(fun kind i -> 100 + (10 * kind) + i)
            d ~specs ~min_jobs:2 ~max_jobs:2 ~until:0.0
        in
        let isolated =
          Gossip_serve.Client.with_connect d.Daemon.sock (fun c ->
              List.mapi
                (fun kind spec -> (kind, Daemon.run_job ?tr ~job:(200 + kind) c ~kind spec))
                specs)
        in
        let submitted = List.length loop + List.length isolated in
        add samples "serve.journal_bytes_per_job"
          (float_of_int (Daemon.journal_bytes d) /. float_of_int submitted);
        (loop, isolated))
  in
  let loop = check_daemon_jobs ledger specs loop in
  let isolated = check_daemon_jobs ledger specs isolated in
  Array.iter (add samples "serve.submit_rpc_s") (Tracer.durations (Tracer.spans tracer) "Client.rpc");
  List.iter
    (fun ((f : Daemon.finished), _) ->
      if not (Float.is_nan f.t_first_progress) then
        add samples "serve.queue_wait_s" (f.t_first_progress -. f.t_submit))
    loop;
  (* Daemon overhead: an isolated daemon job against a direct
     [Sweep.run_job] of the same job. *)
  List.iteri
    (fun kind job ->
      ignore
        (Ledger.attempt ledger "Sweep.run_job" (fun () ->
             let t0 = now () in
             let o =
               Tracer.span tr ~job:(300 + kind) ~layer:"sweep" "Sweep.run_job" (fun () ->
                   Sweep.run_job job)
             in
             let direct = now () -. t0 in
             add samples "sweep.run_job_s" direct;
             match List.find_opt (fun ((f : Daemon.finished), _) -> f.kind = kind) isolated with
             | Some (f, row) ->
                 add samples "serve.overhead_s" (f.t_done -. f.t_submit -. direct);
                 require
                   (o.Sweep.rounds = Some row.rounds
                   && o.Sweep.metrics.Gossip_sim.Engine.deliveries = row.deliveries)
                   "the daemon and a direct Sweep.run_job disagree"
             | None -> Ok ())))
    jobs;
  let daemon_row kind =
    List.find_map
      (fun ((f : Daemon.finished), r) -> if f.kind = kind then Some r else None)
      (loop @ isolated)
  in
  repeat ~seconds:(cfg.seconds -. (now () -. started)) ~min_reps:1 (fun i ->
      let untraced =
        List.filter_map
          (fun job ->
            Gc.compact ();
            Ledger.attempt ledger "untraced job" (fun () ->
                let* r, _ = timed_job cfg ~engine:(untraced_engine ~domains:1) job in
                Ok r))
          jobs
      in
      let env_calls = ref 0 and minor = ref 0.0 in
      let regs = List.map (fun _ -> Registry.create ()) jobs in
      let traced =
        List.concat
          (List.mapi
             (fun kind job ->
               Gc.compact ();
               let engine p =
                 let r, m = Replay.step_loop ?tr ~telemetry:(List.nth regs kind) ~env_calls p in
                 minor := !minor +. m;
                 Replay.summarize r
               in
               Option.to_list
                 (Ledger.attempt ledger "traced job" (fun () ->
                      let* t, p = timed_job ?tr ~job:i cfg ~engine job in
                      let* () =
                        match daemon_row kind with
                        | Some (r : Daemon.row) ->
                            require
                              (t.s.Replay.rounds = Some r.rounds
                              && t.s.Replay.deliveries = r.deliveries)
                              "the traced replay differs from the daemon's run"
                        | None -> Ok ()
                      in
                      if i = 0 then
                        Report.working_set ~pool:true
                          ~workload:(Wheel_engine.protocol_name job.Sweep.protocol)
                          (working_set ~inflight_max:(gauge (List.nth regs kind) "wheel.inflight.max") p);
                      if kind = 0 then csr_samples samples p;
                      Ok t)))
             jobs)
      in
      if List.length untraced = List.length jobs && List.length traced = List.length jobs then begin
        let total l = List.fold_left (fun acc (r : rep) -> acc +. r.job_s) 0.0 l in
        say "  pair %d: untraced jobs %.3f s, traced jobs %.3f s" i (total untraced) (total traced);
        add samples "trace.overhead_frac" (total traced /. total untraced);
        let spans = of_job (Tracer.spans tracer) i in
        layer_samples samples spans;
        let dels = List.fold_left (fun acc (r : rep) -> acc + r.s.Replay.deliveries) 0 traced in
        engine_samples samples spans ~deliveries:dels ~minor:!minor
          ~inflight_max:
            (List.fold_left (fun acc reg -> max acc (gauge reg "wheel.inflight.max")) 0 regs);
        match (traced, regs) with
        | [ a; b ], [ _; reg_b ] ->
            add samples "env.calls_per_initiation"
              (float_of_int !env_calls /. float_of_int a.s.Replay.initiations);
            add samples "kernel.words_per_delivery"
              (float_of_int (words_on_wire reg_b) /. float_of_int b.s.Replay.deliveries)
        | _ -> ()
      end);
  tracer

(* ------------------------------------------------------------------ *)

let print_trace tracer ~uncovered =
  let spans = Tracer.spans tracer in
  say "self time per layer over all %d spans of the traced run:" (List.length spans);
  List.iter (fun (layer, self) -> say "  %-20s %10.4f s" layer self) (Tracer.self_by_layer spans);
  say "share of job_s no span covers: %.4f" uncovered

type outcome = { ledger : Ledger.t; metrics : Report.metric list }

let run cfg =
  let ledger = Ledger.create () in
  Report.fingerprint ();
  let name = fst (List.find (fun (_, w) -> w = cfg.workload) workloads) in
  let job_args =
    let jobs n protocol = List.map (fun seed -> ba_job n ~seed protocol) (run_seeds cfg.seed) in
    match cfg.workload with
    | Pushpull_ba_seq -> Some (jobs cfg.sizes.ba_n Wheel_engine.Push_pull, 1)
    | Rrspanner_ba_2dom ->
        Some (jobs cfg.sizes.rr_n (Wheel_engine.Rr_spanner { stretch_k = 0 }), 2)
    | Gossipd_churn -> None
  in
  let values, names =
    if not cfg.trace then
      ( (match job_args with
        | Some (jobs, domains) -> job_untraced cfg ledger ~name ~jobs ~domains
        | None -> gossipd_untraced cfg ledger),
        end_to_end )
    else begin
      let samples = Hashtbl.create 64 in
      let tracer =
        match job_args with
        | Some (jobs, domains) -> job_traced cfg ledger samples ~name ~job:(List.hd jobs) ~domains
        | None -> gossipd_traced cfg ledger samples
      in
      let v name = median (Option.value ~default:[] (Hashtbl.find_opt samples name)) in
      print_trace tracer ~uncovered:(v "trace.uncovered_frac");
      (* A layer the workload does not run reads 0. *)
      ( List.map
          (fun (name, _) ->
            (name, match Hashtbl.find_opt samples name with Some l -> median l | None -> 0.0))
          per_layer,
        per_layer )
    end
  in
  let metrics =
    List.map
      (fun (name, unit_) -> { Report.name; value = List.assoc name values; unit_ })
      names
  in
  say "%d jobs attempted, %d failed, failed_frac %.4f" ledger.attempted ledger.failed
    (Ledger.failed_frac ledger);
  List.iter (fun e -> say "FAILED %s" e) (List.rev ledger.errors);
  List.iter (fun m -> say "%-30s %16.6f %s" m.Report.name m.Report.value m.Report.unit_) metrics;
  { ledger; metrics }
