(* Failure accounting.  Every job the benchmark starts is one attempt;
   a job that raises, is capped, is refused by the daemon or fails a
   correctness check is one failure, and its reason is kept so the run
   can print it.  Nothing is dropped silently. *)

type t = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let create () = { attempted = 0; failed = 0; errors = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  t.errors <- msg :: t.errors

(* [attempt t what f] counts one attempt and returns [f]'s value, or
   records the failure (an [Error] or an exception) and returns [None]. *)
let attempt t what f =
  t.attempted <- t.attempted + 1;
  match f () with
  | Ok v -> Some v
  | Error msg ->
      fail t (what ^ ": " ^ msg);
      None
  | exception e ->
      fail t (what ^ ": " ^ Printexc.to_string e);
      None

let failed_frac t =
  if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted

let ( let* ) = Result.bind
let require cond msg = if cond then Ok () else Error msg
