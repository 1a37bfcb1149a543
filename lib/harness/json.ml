(* A minimal JSON emitter — just enough for [repro stats --json] to
   write machine-readable rows without adding a dependency the
   container doesn't have.  Floats are written in shortest
   round-trip form, which the harness tests check. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_token f =
  (* Shortest decimal form that parses back to the same float; a
     trailing [.0] keeps integral values readable as floats, not
     ints. *)
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let rec emit buf ~indent t =
  let pad n = String.make n ' ' in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    (* JSON has no NaN/Infinity literals; null is the least-lossy
       representation a consumer can still distinguish from 0. *)
    if Float.is_finite f then Buffer.add_string buf (float_token f)
    else Buffer.add_string buf "null"
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape_string s);
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        emit buf ~indent:(indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape_string k);
        Buffer.add_string buf "\": ";
        emit buf ~indent:(indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 4096 in
  emit buf ~indent:0 t;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let save t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))
