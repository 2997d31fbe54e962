(* An in-process gossipd and a client that drives it.

   The daemon is [Server.default] plus a journal, with signal handlers
   off and an [on_listening] hook; no other setting is changed. *)

module P = Gossip_serve.Protocol
module Client = Gossip_serve.Client
module Server = Gossip_serve.Server
module Json = Gossip_util.Json
open Ledger

type t = { sock : string; journal : string; thread : Thread.t }

let now = Unix.gettimeofday

(* Starts the daemon and returns once its socket accepts connections. *)
let start ~dir ~tag =
  let sock = Filename.concat dir (tag ^ ".sock") in
  let journal = Filename.concat dir (tag ^ ".journal") in
  if Sys.file_exists journal then Sys.remove journal;
  let m = Mutex.create () and cv = Condition.create () in
  let state = ref `Starting in
  let signal s =
    Mutex.lock m;
    if !state = `Starting then state := s;
    Condition.signal cv;
    Mutex.unlock m
  in
  let cfg =
    {
      (Server.default ~socket_path:sock) with
      Server.journal = Some journal;
      install_signals = false;
      on_listening = Some (fun () -> signal `Listening);
    }
  in
  let thread =
    Thread.create
      (fun () ->
        try Server.run cfg
        with e -> signal (`Failed (Printexc.to_string e)))
      ()
  in
  Mutex.lock m;
  while !state = `Starting do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  match !state with
  | `Failed msg ->
      Thread.join thread;
      failwith ("gossipd did not start: " ^ msg)
  | _ -> { sock; journal; thread }

let stop d =
  (try Client.with_connect d.sock (fun c -> ignore (Client.rpc c P.Shutdown)) with _ -> ());
  Thread.join d.thread

let describe r = Json.to_string (P.response_to_json r)

(* Daemon start until the first [Pong]. *)
let start_until_pong ~dir ~tag =
  let t0 = now () in
  let d = start ~dir ~tag in
  match Client.with_connect d.sock (fun c -> Client.rpc c P.Ping) with
  | P.Pong _ -> (d, now () -. t0)
  | r ->
      stop d;
      failwith ("ping answered with " ^ describe r)

(* One daemon job as the client saw it. *)
type finished = {
  kind : int;  (** index of the job's spec in the workload's mix *)
  t_submit : float;
  t_first_progress : float;  (** [nan] when no progress frame arrived *)
  t_done : float;
  status : P.status option;  (** the terminal [Job_done] frame *)
  rows : Json.t list;  (** the job's [result] rows *)
}

(* Submits [spec], watches it to its terminal frame and fetches its
   result rows, over the connection [c].  A refused submit, [Full]
   included, is an [Error]. *)
let run_job ?tr ?job c ~kind spec =
  let span name f = Tracer.span tr ~layer:"serve" name f in
  Tracer.span tr ?job ~layer:"bench" "daemon.job" (fun () ->
      let t_submit = now () in
      match span "Client.rpc" (fun () -> Client.rpc c (P.Submit spec)) with
      | P.Submitted { job = id; _ } ->
          let first = ref nan and status = ref None and rows = ref [] in
          span "Client.stream" (fun () ->
              Client.stream c (P.Watch id) (function
                | P.Progress _ ->
                    if Float.is_nan !first then first := now ();
                    `Continue
                | P.Watching _ | P.Trial_done _ -> `Continue
                | P.Job_done s ->
                    status := Some s;
                    `Stop
                | _ -> `Stop));
          let t_done = now () in
          span "Client.stream" (fun () ->
              Client.stream c (P.Results id) (function
                | P.Result_row { row; _ } ->
                    rows := row :: !rows;
                    `Continue
                | _ -> `Stop));
          Ok
            {
              kind;
              t_submit;
              t_first_progress = !first;
              t_done;
              status = !status;
              rows = List.rev !rows;
            }
      | P.Error { code = P.Queue_full; message } -> Error ("submit refused, queue full: " ^ message)
      | r -> Error ("submit answered with " ^ describe r))

(* What a finished daemon job reported. *)
type row = { rounds : int; initiations : int; deliveries : int; elapsed_s : float }

let field row name = match row with Json.Obj fs -> List.assoc_opt name fs | _ -> None

let int_field row name =
  match field row name with Some (Json.Int i) -> Ok i | _ -> Error ("result row lacks " ^ name)

(* The same checks as [Replay.verify], on the daemon's result row: the
   job ended [Done] with its one trial completed, on a graph of [n]
   nodes, within its round cap, and with at most two deliveries per
   initiation. *)
let check ~n f =
  match f.status with
  | None -> Error "no job_done frame"
  | Some s -> (
      let* () =
        require
          (s.P.s_state = P.Done && s.P.s_completed = 1 && s.P.s_failed = 0)
          (Printf.sprintf "job ended %s with %d completed, %d failed trials"
             (P.job_state_label s.P.s_state) s.P.s_completed s.P.s_failed)
      in
      match f.rows with
      | [ row ] ->
          let* rounds =
            match field row "rounds" with
            | Some (Json.Int r) -> Ok r
            | _ -> Error "capped: the round limit passed before completion"
          in
          let* initiations = int_field row "initiations" in
          let* deliveries = int_field row "deliveries" in
          let* n_row = int_field row "n" in
          let* elapsed_s =
            match field row "elapsed_s" with
            | Some (Json.Float x) -> Ok x
            | Some (Json.Int i) -> Ok (float_of_int i)
            | _ -> Error "result row lacks elapsed_s"
          in
          let* () = require (n_row = n) (Printf.sprintf "graph of %d nodes, expected %d" n_row n) in
          let* () =
            require (deliveries <= 2 * initiations)
              (Printf.sprintf "%d deliveries exceed 2 x %d initiations" deliveries initiations)
          in
          Ok { rounds; initiations; deliveries; elapsed_s }
      | rows -> Error (Printf.sprintf "%d result rows for a one-trial job" (List.length rows)))

(* A closed loop: one client thread per spec, each on its own
   connection, submits its next job only when its previous one has
   finished, so [List.length specs] jobs are outstanding.  A thread
   runs at least [min_jobs] and at most [max_jobs] jobs, and submits no
   job after [until] beyond its first [min_jobs]. *)
let closed_loop ?tr ?(job_id = fun _ _ -> 0) d ~specs ~until ~min_jobs ~max_jobs =
  let lock = Mutex.create () and out = ref [] in
  let record r =
    Mutex.lock lock;
    out := r :: !out;
    Mutex.unlock lock
  in
  let client kind spec =
    try
      Client.with_connect d.sock (fun c ->
          let count = ref 0 in
          while (!count < min_jobs || now () < until) && !count < max_jobs do
            let job = job_id kind !count in
            incr count;
            record
              (kind, try run_job ?tr ~job c ~kind spec with e -> Error (Printexc.to_string e))
          done)
    with e -> record (kind, Error ("client: " ^ Printexc.to_string e))
  in
  let threads = List.mapi (fun kind spec -> Thread.create (client kind) spec) specs in
  List.iter Thread.join threads;
  List.rev !out

let journal_bytes d = try (Unix.stat d.journal).Unix.st_size with Unix.Unix_error _ -> 0
