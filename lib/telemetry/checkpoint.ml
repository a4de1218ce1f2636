(* Checkpoint files: the framing, the atomic write, the truncation guard
   and the replay verdict that DSE and fleet snapshots share. What a
   snapshot holds stays with its owner. *)

module Json = Telemetry.Json

let meta_line (k, v) =
  Printf.sprintf "{\"ck\":\"meta\",\"k\":%s,\"v\":%s}" (Json.quote k)
    (Json.quote v)

let frame ~header ~meta body =
  let body = (header :: List.map meta_line meta) @ body in
  body @ [ Printf.sprintf "{\"ck\":\"end\",\"lines\":%d}" (List.length body) ]

let write path lines =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines);
  Sys.rename tmp path

type t = {
  c_file : string;
  c_kind : string;
  c_header : int * (string * Json.v) list;
  c_meta : (string * string) list;
  c_body : (int * (string * Json.v) list) list;
  c_lines : string list;
}

let of_lines ~kinds ~file lines =
  Result.bind (Json.decode_lines ~file lines (fun n fields -> (n, fields)))
  @@ fun records ->
  Json.located ~file @@ fun () ->
  let bad = Json.bad_line and str n = Json.get_at n Json.get_str in
  let kind fields =
    match Json.find fields "ck" with Some (Json.Jstr k) -> k | _ -> ""
  in
  match List.rev records with
  | [] -> bad 1 "empty checkpoint file"
  | (n, last) :: rev_body -> (
    if kind last <> "end" then
      bad n "checkpoint missing its end marker (truncated write?)";
    if Json.get_at n Json.get_int last "lines" <> List.length rev_body then
      bad n "checkpoint truncated: line count does not match its end marker";
    match List.rev rev_body with
    | [] -> bad n "checkpoint has no header line"
    | (h, header) :: rest ->
      if not (List.mem (kind header) kinds) then
        bad h "not a checkpoint header (ck=%s)" (String.concat " or ck=" kinds);
      let meta, body =
        List.partition_map
          (fun (n, f) ->
            if kind f = "meta" then Left (str n f "k", str n f "v")
            else Right (n, f))
          rest
      in
      { c_file = file;
        c_kind = kind header;
        c_header = (h, header);
        c_meta = meta;
        c_body = body;
        c_lines = List.filter (fun l -> String.trim l <> "") lines })

let read ~kinds path =
  Result.bind (Json.read_file path) @@ fun src ->
  of_lines ~kinds ~file:path (String.split_on_char '\n' src)

type replay = {
  r_file : string;
  r_at : string;
  r_lines : string list;
  mutable r_state : [ `Pending | `Validated | `Diverged of int ];
}

let replay ~file ~at lines =
  { r_file = file; r_at = at; r_lines = lines; r_state = `Pending }

let reached r lines =
  let rec first_diff i = function
    | a :: l, b :: l' -> if a = b then first_diff (i + 1) (l, l') else Some i
    | [], [] -> None
    | _ -> Some i
  in
  if r.r_state = `Pending then
    r.r_state <-
      (match first_diff 1 (r.r_lines, lines) with
      | None -> `Validated
      | Some n -> `Diverged n)

let verdict r =
  match r.r_state with
  | `Validated -> Ok ()
  | `Diverged n ->
    Error
      (Printf.sprintf
         "%s:%d: resume diverged from the checkpoint at %s: the replay \
          regenerated a different line (different seed, options, fault \
          spec or inputs?)"
         r.r_file n r.r_at)
  | `Pending ->
    Error
      (Printf.sprintf
         "%s:1: resume never reached the checkpoint at %s (different \
          configuration, or a shorter run?)"
         r.r_file r.r_at)
