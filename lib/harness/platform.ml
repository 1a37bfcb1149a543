type row = {
  processor : string;
  clock_ghz : float;
  processors : int;
  cores : int;
  hw_threads : int;
  cc_protocol : string;
  native_faa : bool;
}

let paper_rows =
  [
    {
      processor = "Intel Xeon E5-2699v3 (Haswell)";
      clock_ghz = 2.30;
      processors = 2;
      cores = 36;
      hw_threads = 72;
      cc_protocol = "snooping";
      native_faa = true;
    };
    {
      processor = "Intel Xeon Phi 3120";
      clock_ghz = 1.10;
      processors = 1;
      cores = 57;
      hw_threads = 228;
      cc_protocol = "directory";
      native_faa = true;
    };
    {
      processor = "AMD Opteron 6168 (Magny-Cours)";
      clock_ghz = 0.80;
      processors = 4;
      cores = 48;
      hw_threads = 48;
      cc_protocol = "directory";
      native_faa = true;
    };
    {
      processor = "IBM Power7 8233-E8B";
      clock_ghz = 3.55;
      processors = 4;
      cores = 32;
      hw_threads = 128;
      cc_protocol = "snooping";
      native_faa = false;
    };
  ]

let read_cpuinfo () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> close_in ic);
    List.rev !lines
  with Sys_error _ -> []

let field_of_line line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
    let key = String.trim (String.sub line 0 i) in
    let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    Some (key, value)

let host () =
  let lines = read_cpuinfo () in
  let fields = List.filter_map field_of_line lines in
  let find key = List.assoc_opt key fields in
  let model = Option.value (find "model name") ~default:"unknown CPU" in
  let mhz =
    match find "cpu MHz" with
    | Some s -> ( try float_of_string s /. 1000.0 with Failure _ -> 0.0)
    | None -> 0.0
  in
  let hw_threads =
    List.length (List.filter (fun (k, _) -> k = "processor") fields) |> max 1
  in
  {
    processor = model;
    clock_ghz = mhz;
    processors = 1;
    cores = hw_threads; (* best effort: container hides topology *)
    hw_threads;
    (* OCaml's Atomic.fetch_and_add compiles to lock xadd on x86:
       native FAA, as the algorithm requires. *)
    cc_protocol = "unknown (container)";
    native_faa = Sys.word_size = 64;
  }
