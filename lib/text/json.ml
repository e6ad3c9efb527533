type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* [emit] receives unescaped runs as substrings of [s] and each escape
   sequence as a whole string, so a streaming caller copies the text
   once, straight to its sink. *)
let escape_to emit s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Json.escape_to";
  let start = ref pos in
  let flush_run i = if i > !start then emit s !start (i - !start) in
  for i = pos to pos + len - 1 do
    let esc =
      match String.unsafe_get s i with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
      | _ -> ""
    in
    if esc <> "" then begin
      flush_run i;
      emit esc 0 (String.length esc);
      start := i + 1
    end
  done;
  flush_run (pos + len)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  escape_to (Buffer.add_substring buf) s 0 (String.length s);
  Buffer.contents buf

let rec pp ppf = function
  | Null -> Format.fprintf ppf "null"
  | Bool b -> Format.fprintf ppf "%b" b
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "\"%s\"" (escape s)
  | List items ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp)
      items
  | Obj fields ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         (fun ppf (k, v) -> Format.fprintf ppf "\"%s\":%a" (escape k) pp v))
      fields

let to_string v = Format.asprintf "%a" pp v

(* ------------------------------------------------------------------ *)
(* Parsing.  A hand-rolled recursive-descent parser over the input
   string, tracking line/column so protocol errors point at the
   offending byte, in the same style as the scenario parser. *)

exception Parse_error of string * int * int

type cursor = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let fail cur msg = raise (Parse_error (msg, cur.line, cur.col))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur =
  (match peek cur with
   | Some '\n' ->
     cur.line <- cur.line + 1;
     cur.col <- 1
   | Some _ -> cur.col <- cur.col + 1
   | None -> ());
  cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      go ()
    | _ -> ()
  in
  go ()

let expect_char cur c =
  match peek cur with
  | Some d when d = c -> advance cur
  | Some d -> fail cur (Printf.sprintf "expected %C, found %C" c d)
  | None -> fail cur (Printf.sprintf "expected %C, found end of input" c)

(* [keyword] is only called when the head character already matched,
   so a mismatch means a malformed literal like [tru] or [nul]. *)
let keyword cur word value =
  String.iter
    (fun c ->
      match peek cur with
      | Some d when d = c -> advance cur
      | _ -> fail cur (Printf.sprintf "malformed literal (expected %S)" word))
    word;
  value

let hex_digit cur =
  match peek cur with
  | Some ('0' .. '9' as c) ->
    advance cur;
    Char.code c - Char.code '0'
  | Some ('a' .. 'f' as c) ->
    advance cur;
    Char.code c - Char.code 'a' + 10
  | Some ('A' .. 'F' as c) ->
    advance cur;
    Char.code c - Char.code 'A' + 10
  | Some c -> fail cur (Printf.sprintf "expected a hex digit, found %C" c)
  | None -> fail cur "expected a hex digit, found end of input"

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let unicode_escape cur =
  let d1 = hex_digit cur in
  let d2 = hex_digit cur in
  let d3 = hex_digit cur in
  let d4 = hex_digit cur in
  (d1 lsl 12) lor (d2 lsl 8) lor (d3 lsl 4) lor d4

let string_body cur =
  expect_char cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' ->
      advance cur;
      Buffer.contents buf
    | Some '\\' ->
      advance cur;
      (match peek cur with
       | Some '"' -> advance cur; Buffer.add_char buf '"'; go ()
       | Some '\\' -> advance cur; Buffer.add_char buf '\\'; go ()
       | Some '/' -> advance cur; Buffer.add_char buf '/'; go ()
       | Some 'b' -> advance cur; Buffer.add_char buf '\b'; go ()
       | Some 'f' -> advance cur; Buffer.add_char buf '\012'; go ()
       | Some 'n' -> advance cur; Buffer.add_char buf '\n'; go ()
       | Some 'r' -> advance cur; Buffer.add_char buf '\r'; go ()
       | Some 't' -> advance cur; Buffer.add_char buf '\t'; go ()
       | Some 'u' ->
         advance cur;
         let cp = unicode_escape cur in
         let cp =
           (* a high surrogate must pair with a following \uDC00-\uDFFF *)
           if cp >= 0xd800 && cp <= 0xdbff then begin
             (match (peek cur, cur.pos + 1 < String.length cur.src) with
              | (Some '\\', true) when cur.src.[cur.pos + 1] = 'u' ->
                advance cur;
                advance cur
              | _ -> fail cur "unpaired high surrogate (expected \\uDC00-\\uDFFF)");
             let lo = unicode_escape cur in
             if lo < 0xdc00 || lo > 0xdfff then
               fail cur "unpaired high surrogate (expected \\uDC00-\\uDFFF)";
             0x10000 + (((cp - 0xd800) lsl 10) lor (lo - 0xdc00))
           end
           else cp
         in
         add_utf8 buf cp;
         go ()
       | Some c -> fail cur (Printf.sprintf "invalid escape \\%c" c)
       | None -> fail cur "unterminated escape")
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let number cur =
  let start = cur.pos in
  if peek cur = Some '-' then advance cur;
  let digits = ref 0 in
  let rec go () =
    match peek cur with
    | Some '0' .. '9' ->
      incr digits;
      advance cur;
      go ()
    | _ -> ()
  in
  go ();
  if !digits = 0 then fail cur "expected digits";
  (match peek cur with
   | Some ('.' | 'e' | 'E') ->
     fail cur "floating-point numbers are not supported (integers only)"
   | _ -> ());
  let lit = String.sub cur.src start (cur.pos - start) in
  match int_of_string_opt lit with
  | Some n -> Int n
  | None -> fail cur (Printf.sprintf "integer literal %s out of range" lit)

let rec value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "expected a JSON value, found end of input"
  | Some 'n' -> keyword cur "null" Null
  | Some 't' -> keyword cur "true" (Bool true)
  | Some 'f' -> keyword cur "false" (Bool false)
  | Some '"' -> Str (string_body cur)
  | Some ('-' | '0' .. '9') -> number cur
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let items = ref [ value cur ] in
      let rec go () =
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items := value cur :: !items;
          go ()
        | Some ']' -> advance cur
        | Some c -> fail cur (Printf.sprintf "expected ',' or ']' in array, found %C" c)
        | None -> fail cur "unterminated array"
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let field () =
        skip_ws cur;
        let k = string_body cur in
        skip_ws cur;
        expect_char cur ':';
        (k, value cur)
      in
      let fields = ref [ field () ] in
      let rec go () =
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields := field () :: !fields;
          go ()
        | Some '}' -> advance cur
        | Some c -> fail cur (Printf.sprintf "expected ',' or '}' in object, found %C" c)
        | None -> fail cur "unterminated object"
      in
      go ();
      Obj (List.rev !fields)
    end
  | Some c -> fail cur (Printf.sprintf "expected a JSON value, found %C" c)

let of_string src =
  let cur = { src; pos = 0; line = 1; col = 1 } in
  let v = value cur in
  skip_ws cur;
  (match peek cur with
   | Some c -> fail cur (Printf.sprintf "trailing characters after the value: %C" c)
   | None -> ());
  v

let of_string_result src =
  match of_string src with
  | v -> Ok v
  | exception Parse_error (msg, line, col) -> Error (msg, line, col)

let of_channel ic =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec slurp () =
    let n = input ic chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      slurp ()
    end
  in
  slurp ();
  of_string (Buffer.contents buf)
