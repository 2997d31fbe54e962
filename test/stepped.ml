(* Shared by the sharded-parity properties of test_scale and
   test_kernel: a create/step-driven run to [broadcast]'s stopping
   rule, shaped as its result — the wrapper those properties lock to
   [broadcast]. *)

module Wheel = Gossip_scale.Wheel_engine

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
