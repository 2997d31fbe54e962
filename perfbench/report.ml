(* Output: the machine fingerprint, the human-readable lines, and the
   one-line JSON result that ends standard output. *)

module Json = Gossip_util.Json

type metric = { name : string; value : float; unit_ : string }

let say fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

let read_line path =
  try Option.map String.trim (In_channel.with_open_text path In_channel.input_line)
  with Sys_error _ -> None

(* Size in bytes of the level-[level] data or unified cache of cpu0, as
   the kernel reports it ("2048K"). *)
let cache_bytes level =
  let dir i = Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d/" i in
  let parse s =
    let len = String.length s in
    let num, mult =
      match s.[len - 1] with
      | 'K' -> (String.sub s 0 (len - 1), 1024)
      | 'M' -> (String.sub s 0 (len - 1), 1024 * 1024)
      | _ -> (s, 1)
    in
    Option.map (fun v -> v * mult) (int_of_string_opt num)
  in
  List.find_map
    (fun i ->
      match (read_line (dir i ^ "level"), read_line (dir i ^ "type")) with
      | Some l, Some ty when l = string_of_int level && ty <> "Instruction" ->
          Option.bind (read_line (dir i ^ "size")) parse
      | _ -> None)
    [ 0; 1; 2; 3; 4 ]

let mib b = float_of_int b /. 1048576.0

(* VmHWM, the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  let prefix = "VmHWM:" in
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l when String.starts_with ~prefix l ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> nan

let show_cache = function Some b -> Printf.sprintf "%.0f KiB" (float_of_int b /. 1024.0) | None -> "unknown"

let fingerprint () =
  say "machine: nproc=%d ocaml=%s L2=%s L3=%s" (Domain.recommended_domain_count ())
    Sys.ocaml_version (show_cache (cache_bytes 2)) (show_cache (cache_bytes 3))

(* States where a workload's working set sits against the caches. *)
let working_set ?(pool = false) ~workload bytes =
  let l2 = cache_bytes 2 and l3 = cache_bytes 3 in
  let vs name limit = function
    | Some c ->
        Printf.sprintf "%s %s (%.1f MiB)"
          (if float_of_int bytes > limit *. float_of_int c then "exceeds" else "does not exceed")
          name (limit *. mib c)
    | None -> name ^ " unknown"
  in
  say "working set %s: %.1f MiB (graph, contact rows, per-node engine state%s); %s; %s" workload
    (mib bytes)
    (if pool then ", exchange pool at its peak" else "")
    (vs "L2" 1.0 l2) (vs "4 x L3" 4.0 l3)

let result ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
                metrics) );
       ])
