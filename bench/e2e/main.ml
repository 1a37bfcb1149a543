(* The repository benchmark (see README.md and BENCHMARK.json at the
   repository root).

   dune exec bench/e2e/main.exe -- [--workload NAME] [--seed N]
     [--seconds S] [--json PATH] [--trace 0|1|DIR]

   With --workload, runs that workload in this process and prints one
   [workload metric value unit] line per metric, then one JSON line:
   {"correct", "attempted", "failed", "metrics"}, the metrics being the
   end-to-end set, or with tracing on the per-layer set.  Without it,
   runs every workload, each in a fresh child process so GC state and
   peak heap do not leak between them.  Exit 0 when every audit
   passes, 1 when one fails, 2 on a usage error. *)

open E2e

let workloads =
  [ ("pairs", Pairs.run); ("stream", Stream.run); ("tasks", Tasks.run); ("forkjoin", Forkjoin.run) ]

let usage =
  "usage: main.exe [--workload pairs|stream|tasks|forkjoin] [--seed N] [--seconds S] [--json PATH] [--trace 0|1|DIR]\n\
  \  --workload  one workload (default: all four, each in a child process)\n\
  \  --seed      integer seed for the generated inputs (default 1)\n\
  \  --seconds   measured period per workload, > 0 and <= 600 (default 10)\n\
  \  --json      also write the results to PATH\n\
  \  --trace     0: off (default); 1 or DIR: repeat each workload traced and write\n\
  \              DIR/<workload>.spans.jsonl (1 means _build/e2e-traces)\n"

let default_trace_dir = "_build/e2e-traces"

type opts = { workload : string option; seed : int; seconds : float; json : string option; trace : string option }

let die msg =
  prerr_string ("main.exe: " ^ msg ^ "\n" ^ usage);
  exit 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    Sys.mkdir dir 0o755
  end

(* Fail fast, before minutes of measuring, on a path we cannot write. *)
let check_writable_file path =
  try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path)
  with Sys_error e -> die ("cannot write --json file: " ^ e)

let check_writable_dir dir =
  try
    mkdir_p dir;
    let probe = Filename.concat dir ".e2e-write-test" in
    close_out (open_out probe);
    Sys.remove probe
  with Sys_error e | Unix.Unix_error (_, _, e) -> die ("cannot write --trace directory: " ^ e)

let parse args =
  let rec go o = function
    | [] -> o
    | ("-h" | "--help") :: _ ->
      print_string usage;
      exit 0
    | "--workload" :: w :: rest ->
      if List.mem_assoc w workloads then go { o with workload = Some w } rest else die ("unknown workload: " ^ w)
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with Some seed -> go { o with seed } rest | None -> die ("--seed needs an integer, got " ^ s))
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some x when x > 0. && x <= 600. -> go { o with seconds = x } rest
      | _ -> die ("--seconds needs a number in (0, 600], got " ^ s))
    | "--json" :: p :: rest -> go { o with json = Some p } rest
    | "--trace" :: t :: rest ->
      go { o with trace = (match t with "0" -> None | "1" -> Some default_trace_dir | dir -> Some dir) } rest
    | [ ("--workload" | "--seed" | "--seconds" | "--json" | "--trace") as flag ] -> die (flag ^ " needs a value")
    | x :: _ -> die ("unknown argument: " ^ x)
  in
  let o = go { workload = None; seed = 1; seconds = 10.; json = None; trace = None } args in
  Option.iter check_writable_file o.json;
  Option.iter check_writable_dir o.trace;
  o

let write_json path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

(* One workload in this process: the untraced pass always; with
   tracing, a second, traced pass whose primary metric against the
   untraced one is the tracing overhead. *)
let run_one o name =
  let run = List.assoc name workloads in
  let ctx = { Common.seed = o.seed; seconds = o.seconds; setups = 9; traced = false } in
  let u = run ctx ~untraced:None in
  Report.check_complete ~names:Report.e2e_names u.e2e;
  let r =
    match o.trace with
    | None -> { Report.workload = name; attempted = u.attempted; failed = u.failed; e2e = u.e2e; layer = []; info = u.info }
    | Some dir ->
      Trace.reset ();
      let t = run { ctx with setups = 1; traced = true } ~untraced:(Some u) in
      let overhead =
        if u.higher_is_better then 1. -. (t.primary /. u.primary) else (t.primary /. u.primary) -. 1.
      in
      let layer = t.layer @ [ Report.m "trace.overhead_frac" "fraction" overhead ] in
      Report.check_complete ~names:Report.layer_names layer;
      {
        Report.workload = name;
        attempted = u.attempted + t.attempted;
        failed = u.failed + t.failed;
        e2e = u.e2e;
        layer;
        (* the traced pass's own workload rows would repeat the
           untraced names; keep only what tracing adds *)
        info =
          u.info
          @ List.filter (fun (x : Report.metric) -> not (List.exists (fun (y : Report.metric) -> y.name = x.name) u.info)) t.info
          @ Common.span_info ~dir ~workload:name;
      }
  in
  let r = { r with info = r.info @ [ Report.m "failed_frac" "fraction" (Util.ratio r.failed r.attempted) ] } in
  Report.print_lines stdout r;
  print_endline (Report.json_line ~traced:(o.trace <> None) r);
  Option.iter (fun p -> write_json p (Report.json_full r)) o.json;
  if Report.correct r then 0 else 1

(* The integer after ["key": ] in a child's JSON line. *)
let int_field line key =
  let pat = Printf.sprintf "\"%s\": " key in
  let n = String.length pat in
  let rec find i =
    if i + n > String.length line then 0
    else if String.sub line i n = pat then Scanf.sscanf (String.sub line (i + n) (String.length line - i - n)) "%d" Fun.id
    else find (i + 1)
  in
  find 0

let run_child o name =
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%.17g" o.seconds ]
    @ match o.trace with Some dir -> [ "--trace"; dir ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec echo last =
    match input_line ic with
    | line ->
      print_endline line;
      echo line
    | exception End_of_file -> last
  in
  let last = echo "" in
  close_in ic;
  let code = match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> 1 in
  (name, code, last)

let run_all o =
  let results = List.map (fun (name, _) -> run_child o name) workloads in
  let ok = List.for_all (fun (_, code, _) -> code = 0) results in
  let sum key = List.fold_left (fun acc (_, _, line) -> acc + int_field line key) 0 results in
  let doc =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"workloads\": {%s}}" ok (sum "attempted")
      (sum "failed")
      (String.concat ", "
         (List.map
            (fun (name, _, line) ->
              Printf.sprintf "%S: %s" name (if String.starts_with ~prefix:"{" line then line else "null"))
            results))
  in
  print_endline doc;
  Option.iter (fun p -> write_json p doc) o.json;
  if ok then 0 else 1

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  let code =
    try match o.workload with Some name -> run_one o name | None -> run_all o
    with e ->
      prerr_endline ("main.exe: " ^ Printexc.to_string e);
      1
  in
  exit code
