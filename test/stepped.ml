(* Shared by the sharded-parity properties of test_scale and
   test_kernel: the shard counts and fault environments they sweep, and
   a create/step-driven run to [broadcast]'s stopping rule, shaped as
   its result — the wrapper those properties lock to [broadcast]. *)

module Wheel = Gossip_scale.Wheel_engine
module Engine = Gossip_sim.Engine

(* CI matrixes the properties over shard counts by setting
   GOSSIP_PARITY_DOMAINS (comma-separated); the default sweeps 1-4. *)
let parity_domains =
  match Sys.getenv_opt "GOSSIP_PARITY_DOMAINS" with
  | None -> [ 1; 2; 3; 4 ]
  | Some s ->
      let ds = String.split_on_char ',' s |> List.filter_map int_of_string_opt in
      if ds = [] then [ 1; 2; 3; 4 ] else ds

(* Static fault plans as environments, each with the [max_jitter] it
   declares.  The closures are pure (deterministic functions of their
   arguments), as the sharded engine's contract requires. *)
let parity_envs =
  List.map
    (fun (name, plan, max_jitter) -> (name, Wheel.env_of_faults plan, max_jitter))
    [
      ("none", Engine.no_faults, 0);
      ( "drop",
        {
          Engine.no_faults with
          Engine.drop =
            (fun ~initiator ~responder ~round -> (initiator + (3 * responder) + round) mod 5 = 0);
        },
        0 );
      ( "crash",
        { Engine.no_faults with Engine.alive = (fun ~node ~round -> node mod 7 <> 3 || round < 2) },
        0 );
      ( "jitter",
        {
          Engine.no_faults with
          Engine.jitter = (fun ~latency ~round -> latency + ((latency + round) mod 3));
        },
        2 );
    ]

let run t ~n ~max_rounds =
  let history = ref [ (0, Wheel.informed_count t) ] in
  while Wheel.informed_count t < n && Wheel.current_round t < max_rounds do
    Wheel.step t;
    let c = Wheel.informed_count t in
    if c <> snd (List.hd !history) then history := (Wheel.current_round t, c) :: !history
  done;
  {
    Wheel.rounds = (if Wheel.informed_count t = n then Some (Wheel.current_round t) else None);
    metrics = Wheel.metrics t;
    history = List.rev !history;
    informed = Bytes.init n (fun v -> if Wheel.informed t v then '\001' else '\000');
  }

let same (a : Wheel.result) (b : Wheel.result) =
  a.Wheel.rounds = b.Wheel.rounds
  && a.Wheel.history = b.Wheel.history
  && a.Wheel.metrics = b.Wheel.metrics
  && Bytes.equal a.Wheel.informed b.Wheel.informed
