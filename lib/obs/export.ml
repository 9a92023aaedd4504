(* ------------------------------------------------------------------ *)
(* JSON emission. Numbers print through %.3f (timestamps are virtual ms
   with sub-ms precision; three decimals of a microsecond is plenty) or
   %.6g for metric values — both locale-independent in OCaml. JSON has no
   NaN or infinity, so every non-finite metric value prints as null. *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number buf v =
  if not (Float.is_finite v) then Buffer.add_string buf "null"
  else Buffer.add_string buf (Printf.sprintf "%.6g" v)

let us buf ms = Buffer.add_string buf (Printf.sprintf "%.3f" (ms *. 1000.0))

let args_obj buf args =
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ",";
      escape buf k;
      Buffer.add_string buf ":";
      escape buf v)
    args;
  Buffer.add_string buf "}"

let event_json buf ~pid event =
  let common ~name ~cat ~ph ~tid =
    Buffer.add_string buf "{\"name\":";
    escape buf name;
    if cat <> "" then begin
      Buffer.add_string buf ",\"cat\":";
      escape buf cat
    end;
    Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%s\",\"pid\":%d,\"tid\":%d" ph pid tid)
  in
  (match event with
  | Trace_log.Complete { name; cat; tid; ts; dur; args } ->
      common ~name ~cat ~ph:"X" ~tid;
      Buffer.add_string buf ",\"ts\":";
      us buf ts;
      Buffer.add_string buf ",\"dur\":";
      us buf dur;
      if args <> [] then begin
        Buffer.add_string buf ",\"args\":";
        args_obj buf args
      end
  | Trace_log.Instant { name; cat; tid; ts; args } ->
      common ~name ~cat ~ph:"i" ~tid;
      Buffer.add_string buf ",\"ts\":";
      us buf ts;
      Buffer.add_string buf ",\"s\":\"t\"";
      if args <> [] then begin
        Buffer.add_string buf ",\"args\":";
        args_obj buf args
      end
  | Trace_log.Thread_name { tid; name } ->
      common ~name:"thread_name" ~cat:"" ~ph:"M" ~tid;
      Buffer.add_string buf ",\"ts\":0,\"args\":{\"name\":";
      escape buf name;
      Buffer.add_string buf "}"
  | Trace_log.Flow_start { name; cat; tid; ts; id } ->
      common ~name ~cat ~ph:"s" ~tid;
      Buffer.add_string buf (Printf.sprintf ",\"id\":%d,\"ts\":" id);
      us buf ts
  | Trace_log.Flow_finish { name; cat; tid; ts; id } ->
      common ~name ~cat ~ph:"f" ~tid;
      (* bp:"e" binds the arrow to the enclosing slice, the pre-Perfetto
         Chrome convention both viewers accept. *)
      Buffer.add_string buf (Printf.sprintf ",\"id\":%d,\"bp\":\"e\",\"ts\":" id);
      us buf ts
  | _ -> () (* causal events: [trace_json] passes span events only *));
  Buffer.add_string buf "}"

let trace_json buf logs =
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit f =
    if !first then first := false else Buffer.add_string buf ",\n";
    f ()
  in
  List.iteri
    (fun pid (process, log) ->
      emit (fun () ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"ts\":0,\"args\":{\"name\":"
               pid);
          escape buf process;
          Buffer.add_string buf "}}");
      List.iter
        (fun event -> if Trace_log.is_span event then emit (fun () -> event_json buf ~pid event))
        (Trace_log.events log))
    logs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n"

(* ------------------------------------------------------------------ *)
(* Flat metrics document. *)

let metrics_json buf ?(meta = []) registries =
  Buffer.add_string buf "{\"schema\":\"samya-metrics/1\"";
  if meta <> [] then begin
    Buffer.add_string buf ",\n\"meta\":";
    args_obj buf meta
  end;
  Buffer.add_string buf ",\n\"sections\":[";
  List.iteri
    (fun i (section, registry) ->
      if i > 0 then Buffer.add_string buf ",";
      let snap = Metrics.snapshot registry in
      Buffer.add_string buf "\n{\"section\":";
      escape buf section;
      Buffer.add_string buf ",\"counters\":{";
      List.iteri
        (fun j (name, v) ->
          if j > 0 then Buffer.add_string buf ",";
          escape buf name;
          Buffer.add_string buf (Printf.sprintf ":%d" v))
        snap.Metrics.counters;
      Buffer.add_string buf "},\"gauges\":{";
      List.iteri
        (fun j (name, last, max) ->
          if j > 0 then Buffer.add_string buf ",";
          escape buf name;
          Buffer.add_string buf ":{\"last\":";
          number buf last;
          Buffer.add_string buf ",\"max\":";
          number buf max;
          Buffer.add_string buf "}")
        snap.Metrics.gauges;
      Buffer.add_string buf "},\"histograms\":{";
      List.iteri
        (fun j (name, h) ->
          if j > 0 then Buffer.add_string buf ",";
          escape buf name;
          Buffer.add_string buf (Printf.sprintf ":{\"count\":%d,\"sum\":" h.Metrics.count);
          number buf h.Metrics.sum;
          Buffer.add_string buf ",\"min\":";
          number buf h.Metrics.min;
          Buffer.add_string buf ",\"max\":";
          number buf h.Metrics.max;
          Buffer.add_string buf ",\"p50\":";
          number buf (Metrics.quantile h 0.50);
          Buffer.add_string buf ",\"p99\":";
          number buf (Metrics.quantile h 0.99);
          Buffer.add_string buf ",\"buckets\":[";
          List.iteri
            (fun k (idx, c) ->
              if k > 0 then Buffer.add_string buf ",";
              Buffer.add_string buf "{\"le\":";
              number buf (Metrics.bucket_upper_bound idx);
              Buffer.add_string buf (Printf.sprintf ",\"count\":%d}" c))
            h.Metrics.buckets;
          Buffer.add_string buf "]}")
        snap.Metrics.histograms;
      Buffer.add_string buf "}}")
    registries;
  Buffer.add_string buf "]}\n"

(* ------------------------------------------------------------------ *)
(* SLO report document. *)

let slo_json buf ?(meta = []) systems =
  Buffer.add_string buf "{\"schema\":\"samya-slo/1\"";
  if meta <> [] then begin
    Buffer.add_string buf ",\n\"meta\":";
    args_obj buf meta
  end;
  Buffer.add_string buf ",\n\"systems\":[";
  List.iteri
    (fun i (system, window_ms, lines) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n{\"system\":";
      escape buf system;
      Buffer.add_string buf ",\"window_ms\":";
      number buf window_ms;
      Buffer.add_string buf
        (Printf.sprintf ",\"healthy\":%b,\"objectives\":[" (Slo.healthy lines));
      List.iteri
        (fun j (line : Slo.report_line) ->
          if j > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf "\n{\"name\":";
          escape buf line.Slo.name;
          Buffer.add_string buf ",\"kind\":";
          escape buf line.Slo.kind;
          if not (Float.is_nan line.Slo.q) then begin
            Buffer.add_string buf ",\"q\":";
            number buf line.Slo.q
          end;
          Buffer.add_string buf ",\"target\":";
          number buf line.Slo.target;
          Buffer.add_string buf
            (Printf.sprintf ",\"windows\":%d,\"violations\":%d,\"worst\":"
               line.Slo.windows line.Slo.violations);
          number buf line.Slo.worst;
          Buffer.add_string buf ",\"overall\":";
          number buf line.Slo.overall;
          Buffer.add_string buf "}")
        lines;
      Buffer.add_string buf "]}")
    systems;
  Buffer.add_string buf "]}\n"

(* ------------------------------------------------------------------ *)
(* Validation: a minimal recursive-descent JSON parser (no dependency),
   then structural checks of the trace_event schema. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; loop ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; loop ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; loop ()
          | Some 'b' -> advance (); Buffer.add_char buf '\b'; loop ()
          | Some 'f' -> advance (); Buffer.add_char buf '\012'; loop ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              (* keep the raw escape; validation only needs structure *)
              Buffer.add_string buf (String.sub s !pos 4);
              pos := !pos + 4;
              loop ()
          | Some c -> advance (); Buffer.add_char buf c; loop ()
          | None -> fail "unterminated escape")
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, value) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, value) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec elements acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (value :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (value :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let value = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  value

let parse s = match parse_json s with exception Parse_error m -> Error m | v -> Ok v

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let validate_event i fields =
  let find key = List.assoc_opt key fields in
  let str key =
    match find key with
    | Some (Str s) -> Ok s
    | Some _ -> Error (Printf.sprintf "event %d: %S is not a string" i key)
    | None -> Error (Printf.sprintf "event %d: missing %S" i key)
  in
  let num key =
    match find key with
    | Some (Num _) -> Ok ()
    | Some _ -> Error (Printf.sprintf "event %d: %S is not a number" i key)
    | None -> Error (Printf.sprintf "event %d: missing %S" i key)
  in
  let ( let* ) = Result.bind in
  let* _name = str "name" in
  let* ph = str "ph" in
  let* () = num "pid" in
  let* () = num "tid" in
  let* () = if ph = "M" then Ok () else num "ts" in
  let* () = if ph = "X" then num "dur" else Ok () in
  if ph = "s" || ph = "t" || ph = "f" then num "id" else Ok ()

let validate_trace s =
  match parse_json s with
  | exception Parse_error msg -> Error ("not valid JSON: " ^ msg)
  | Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Arr events) ->
          let rec check i = function
            | [] -> Ok i
            | Obj event_fields :: rest -> (
                match validate_event i event_fields with
                | Ok () -> check (i + 1) rest
                | Error _ as e -> e)
            | _ -> Error (Printf.sprintf "event %d is not an object" i)
          in
          check 0 events
      | Some _ -> Error "traceEvents is not an array"
      | None -> Error "missing traceEvents")
  | _ -> Error "top level is not an object"
