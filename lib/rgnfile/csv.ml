let rec quote_free f i n =
  i >= n
  ||
  match String.unsafe_get f i with
  | ',' | '"' | '\n' -> false
  | _ -> quote_free f (i + 1) n

let add_field buf f =
  if quote_free f 0 (String.length f) then Buffer.add_string buf f
  else begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      f;
    Buffer.add_char buf '"'
  end

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

let add_record buf fields =
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      add_field buf f)
    fields;
  Buffer.add_char buf '\n'
