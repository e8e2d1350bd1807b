(* Line counts per library: non-blank lines of lib/<name>/*.ml{,i}
   that hold something outside a comment. *)

(* OCaml comments nest and may span lines; a string literal may hold
   "(*".  Character literals are skipped so '"' opens no string. *)
let count_source (text : string) : int =
  let n = String.length text in
  let depth = ref 0 and in_str = ref false and code = ref false and lines = ref 0 in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    let next = if !i + 1 < n then text.[!i + 1] else ' ' in
    if c = '\n' then begin
      if !code then incr lines;
      code := false;
      incr i
    end
    else if !in_str then begin
      if !depth = 0 then code := true;
      if c = '\\' then i := !i + 2
      else begin
        if c = '"' then in_str := false;
        incr i
      end
    end
    else if c = '(' && next = '*' then begin
      incr depth;
      i := !i + 2
    end
    else if !depth > 0 && c = '*' && next = ')' then begin
      decr depth;
      i := !i + 2
    end
    else if c = '"' then begin
      in_str := true;
      if !depth = 0 then code := true;
      incr i
    end
    else if !depth = 0 && c = '\'' && !i + 2 < n && text.[!i + 2] = '\'' then begin
      code := true;
      i := !i + 3
    end
    else begin
      if !depth = 0 && c <> ' ' && c <> '\t' && c <> '\r' then code := true;
      incr i
    end
  done;
  if !code then incr lines;
  !lines

let read path = In_channel.with_open_bin path In_channel.input_all

(* The count for lib/<lib>. *)
let count lib : int =
  let dir = Filename.concat "lib" lib in
  let files = try Array.to_list (Sys.readdir dir) with Sys_error _ -> [] in
  List.fold_left
    (fun acc f ->
      if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then
        acc + count_source (read (Filename.concat dir f))
      else acc)
    0 files
