(* In-memory span recorder for the traced run.

   The benchmark opens a span around each call it makes into a layer's
   public functions; the program itself carries no instrumentation.
   Spans stay in memory until the run ends.  The gossipd workload
   drives the daemon from several client threads, so open spans are
   tracked per thread and the recorder is guarded by a mutex. *)

type span = {
  id : int;
  name : string;  (** the public function called, e.g. "Spanner.build" *)
  layer : string;  (** the repo module it belongs to, e.g. "core.spanner" *)
  parent : int;  (** id of the enclosing span on the same thread; -1 for a root *)
  job : int;
  t0 : float;
  t1 : float;
  minor_words : float;  (** minor-heap words allocated by this domain inside the span *)
}

type t = {
  lock : Mutex.t;
  mutable spans : span list;  (* most recently closed first *)
  mutable next : int;
  stacks : (int, (int * int) list) Hashtbl.t;  (* thread id -> open (span id, job) *)
}

let create () = { lock = Mutex.create (); spans = []; next = 0; stacks = Hashtbl.create 4 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* [span tr ?job ~layer name f] runs [f] inside a span when tracing is
   on and calls it bare otherwise.  A span inherits its parent's job id
   unless [job] is given. *)
let span tr ?job ~layer name f =
  match tr with
  | None -> f ()
  | Some t ->
      let thread = Thread.id (Thread.self ()) in
      let id, parent, job =
        locked t (fun () ->
            let id = t.next in
            t.next <- id + 1;
            let stack = Option.value ~default:[] (Hashtbl.find_opt t.stacks thread) in
            let parent, inherited = match stack with (p, j) :: _ -> (p, j) | [] -> (-1, 0) in
            let job = Option.value job ~default:inherited in
            Hashtbl.replace t.stacks thread ((id, job) :: stack);
            (id, parent, job))
      in
      let m0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      let close () =
        let t1 = Unix.gettimeofday () in
        let minor_words = Gc.minor_words () -. m0 in
        locked t (fun () ->
            (match Hashtbl.find_opt t.stacks thread with
            | Some (_ :: rest) -> Hashtbl.replace t.stacks thread rest
            | _ -> ());
            t.spans <- { id; name; layer; parent; job; t0; t1; minor_words } :: t.spans)
      in
      Fun.protect ~finally:close f

let spans t = locked t (fun () -> List.rev t.spans)
let duration s = s.t1 -. s.t0

(* A span's self time is its duration minus the part its direct
   children cover.  Children run on their parent's thread one after
   another, so their durations add without overlap. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* Total self time per layer, in order of first appearance. *)
let self_by_layer spans =
  List.fold_left
    (fun acc (s, self) ->
      match List.assoc_opt s.layer acc with
      | Some v -> (s.layer, v +. self) :: List.remove_assoc s.layer acc
      | None -> acc @ [ (s.layer, self) ])
    [] (self_times spans)

let named spans name = List.filter (fun s -> s.name = name) spans
let durations spans name = Array.of_list (List.map duration (named spans name))
