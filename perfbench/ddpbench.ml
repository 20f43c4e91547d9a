(* The benchmark's one command:

     ddpbench --workload <live-parallel|dag-exact|daemon-replay>
              --seed <n> --seconds <s> --trace <0|1>

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   runs the traced per-layer ledger instead.  Every output is checked;
   the last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}, and any failed check
   makes the exit code 1.  A fuller record (provenance, metrics, spans)
   goes to _perfbench/<workload>-seed<n>-trace<t>.json. *)

open Common
module Json = Ddp_obs.Json

(* The per-layer metrics and units BENCHMARK.json declares, in order. *)
let per_layer_names () =
  let field k j = Option.get (Json.member k j) in
  List.map
    (fun j -> (Option.get (Json.to_str (field "name" j)), Option.get (Json.to_str (field "unit" j))))
    (Option.get (Json.to_list (field "per_layer" (Json.of_file "BENCHMARK.json"))))

(* A layer a workload bypasses reports 0: it did no work there. *)
let complete_per_layer ms =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) ms with Some x -> x | None -> m name unit_ 0.0)
    (per_layer_names ())

(* Provenance: the commit when the tree is a git checkout, and always a
   digest of the library and benchmark sources. *)
let commit () =
  let read f = In_channel.with_open_bin f In_channel.input_all |> String.trim in
  try
    let head = read ".git/HEAD" in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
    else head
  with Sys_error _ -> "unknown"

let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  try Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (files "lib" @ files "perfbench"))))
  with Sys_error _ -> "unknown"

let usage = "ddpbench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "live-parallel | dag-exact | daemon-replay");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  let e2e, ledger =
    match !workload with
    | "live-parallel" -> (Live_parallel.e2e, Live_parallel.traced)
    | "dag-exact" -> (Dag_exact.e2e, Dag_exact.traced)
    | "daemon-replay" -> (Daemon_replay.e2e, Daemon_replay.traced)
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  let commit = commit () and digest = source_digest () in
  Printf.printf "ddpbench %s seed=%d seconds=%g trace=%d | nproc=%d W=%d clients=%d | OCaml %s | commit %s | sources %s\n%!"
    !workload seed seconds !trace nproc workers Daemon_replay.clients Sys.ocaml_version commit digest;
  let metrics, spans =
    if traced then begin
      let tr, ms = ledger ~seed ~seconds in
      print_endline "self time by span:";
      List.iter (fun (name, self) -> Printf.printf "  %-40s %10.3f s\n" name self) (Span.self_by_name tr);
      (complete_per_layer ms, Span.to_json tr)
    end
    else (e2e ~seed ~seconds, Json.List [])
  in
  List.iter (fun x -> Printf.printf "  %-40s %14.6f %s\n" x.name x.value x.unit_) metrics;
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  check finite "every metric is a finite number";
  Printf.printf "failed_frac %d/%d\n%!" checks.failed checks.attempted;
  let metric_json x = (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit_) ]) in
  let dir = "_perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Json.to_file
    (Printf.sprintf "%s/%s-seed%d-trace%d.json" dir !workload seed !trace)
    (Json.Obj
       [
         ( "provenance",
           Json.Obj
             [
               ("workload", Json.Str !workload);
               ("seed", Json.Int seed);
               ("seconds", Json.Float seconds);
               ("nproc", Json.Int nproc);
               ("workers", Json.Int workers);
               ("clients", Json.Int Daemon_replay.clients);
               ("ocaml", Json.Str Sys.ocaml_version);
               ("commit", Json.Str commit);
               ("source_digest", Json.Str digest);
             ] );
         ("attempted", Json.Int checks.attempted);
         ("failed", Json.Int checks.failed);
         ("metrics", Json.Obj (List.map metric_json metrics));
         ("spans", spans);
       ]);
  let correct = checks.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    checks.attempted checks.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (if Float.is_finite x.value then Printf.sprintf "%.17g" x.value else "0")
              x.unit_)
          metrics));
  exit (if correct then 0 else 1)
