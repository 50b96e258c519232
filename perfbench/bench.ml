(* The repo benchmark's main program. One workload per invocation:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   prints a human-readable report, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. Exits 1 when an
   answer check fails or a traced run's layer accounting does not cover
   the solve wall. [--tiny] shrinks every workload for the self-test. *)

open Common

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME cut-master | cut-separation | serve-mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--tiny", Arg.Set tiny, " tiny configuration (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced = !trace = 1 in
  (* Before any workload pins a thread; run.py may have pinned the whole
     process already, and reports that itself. *)
  let nproc = Domain.recommended_domain_count () in
  let outcome, valid =
    match !workload with
    | ("cut-master" | "cut-separation") as w ->
        let cfg =
          if w = "cut-master" then Cut.master ~tiny:!tiny else Cut.separation ~tiny:!tiny
        in
        if traced then
          let o, coverage = Cut.run_traced cfg ~seed:!seed in
          (o, coverage >= 0.95)
        else (Cut.run_untraced cfg ~seed:!seed ~seconds:!seconds, true)
    | "serve-mix" ->
        let cfg = if !tiny then Serve.tiny else Serve.default in
        if traced then (Serve.run_traced cfg ~seed:!seed ~seconds:!seconds, true)
        else (Serve.run_untraced cfg ~seed:!seed ~seconds:!seconds, true)
    | w ->
        Printf.eprintf "unknown workload %S\n%s\n" w usage;
        exit 2
  in
  Printf.printf "workload %s  seed %d  seconds %g  trace %d%s\n" !workload !seed !seconds !trace
    (if !tiny then "  (tiny)" else "");
  let outcome =
    if traced then { outcome with metrics = complete_layers outcome.metrics } else outcome
  in
  let machine =
    [
      ("nproc", string_of_int nproc);
      ("ocaml", Sys.ocaml_version);
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "  %-12s %s\n" k v) (machine @ outcome.context);
  List.iter (fun (k, u, v) -> Printf.printf "  %-28s %14.6g %s\n" k v u) outcome.metrics;
  Printf.printf "  attempted %d  failed %d  wrong answers %d\n" outcome.attempted outcome.failed
    outcome.wrong;
  if not valid then print_endline "  INVALID: cut.coverage below 0.95";
  print_endline (result_line outcome);
  if outcome.wrong > 0 || not valid then exit 1
