package snapshot

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"sync"
)

// Labels names the pointers a walk prints as a label instead of
// following: the engine and the roots registered on it, so a layer's
// back-pointer to another layer reads "node3/hfi" rather than a second
// copy of that layer's state.
type Labels struct{ m map[ref]string }

// ref identifies a pointer by its type and address. The address is used
// for identity only and is never printed.
type ref struct {
	t reflect.Type
	p uintptr
}

func refOf(v reflect.Value) ref { return ref{v.Type(), v.Pointer()} }

// Add names ptr, which must be a pointer, label.
func (l *Labels) Add(label string, ptr any) {
	if l.m == nil {
		l.m = make(map[ref]string)
	}
	l.m[refOf(reflect.ValueOf(ptr))] = label
}

// Of returns the label of ptr, when ptr is a non-nil pointer named in l.
func (l *Labels) Of(ptr any) (string, bool) {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return "", false
	}
	label, ok := l.m[refOf(v)]
	return label, ok
}

// Walk writes the state reachable from v to w as one "path=value" line
// per scalar, each path behind prefix. It reads the types, never calls a
// method of the walked value, and prints:
//
//   - struct fields by name, in declaration order;
//   - slices by index, after a "len" line; arrays by index;
//   - maps in ascending key order; a key type without a total order
//     (pointers, interfaces, channels) is an error naming its path;
//   - a pointer's target the first time it is met, and "&<first path>"
//     each later time; a pointer named in labels as its label;
//   - an interface's dynamic value under ".(<type>)";
//   - byte slices, byte arrays and pointers to byte arrays as
//     "<len>:<SHA-256 prefix>";
//   - non-nil func and chan values as "fn" and "chan".
//
// Zero values print nothing, and neither does a pointer whose target
// prints nothing; a map entry whose value is zero still prints its key,
// a non-empty slice always prints its length, and a byte slice or a
// pointer to a byte array (a buffer reference) prints even when its
// bytes are all zero.
//
// Two struct tags steer it: `snap:"-"` skips a field (engine and trace
// back-pointers, caches rebuilt on use, state derivable from other
// printed state) and `snap:"hash"` folds a field's lines into one
// "#<SHA-256 prefix>" line (large real state such as page-table leaves).
func Walk(w io.Writer, prefix string, v any, labels *Labels) error {
	wk := walkers.Get().(*walker)
	defer wk.release()
	wk.seen = make(map[ref]firstPath)
	if labels != nil {
		wk.labels = labels.m
	}
	wk.path = append(wk.path, prefix...)
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer && !rv.IsNil() {
		// The root itself is walked, not printed as its own label.
		wk.seen[refOf(rv)] = wk.remember()
		rv = rv.Elem()
	}
	if err := wk.value(rv); err != nil {
		return err
	}
	_, err := w.Write(wk.out)
	return err
}

// walkers recycles walkers, so the byte buffers of one walk grow once
// per pooled walker rather than once per walk. A snapshot walks each
// section, and each pending event's argument, on its own.
var walkers = sync.Pool{New: func() any { return new(walker) }}

// release empties w, keeping its buffers' capacity, and pools it.
func (w *walker) release() {
	*w = walker{paths: w.paths[:0], path: w.path[:0], out: w.out[:0]}
	walkers.Put(w)
}

type walker struct {
	labels map[ref]string
	seen   map[ref]firstPath // pointer → path it was first walked at
	// paths holds the first paths end to end: a pointer met once costs
	// an append here, not a string of its own.
	paths []byte
	path  []byte
	out   []byte
}

// firstPath is the span paths[start:end].
type firstPath struct{ start, end int }

// remember appends the current path to paths and returns its span.
func (w *walker) remember() firstPath {
	start := len(w.paths)
	w.paths = append(w.paths, w.path...)
	return firstPath{start, len(w.paths)}
}

// line emits path=val.
func (w *walker) line(val string) {
	w.out = append(append(append(w.out, w.path...), '='), val...)
	w.out = append(w.out, '\n')
}

// push appends a path element and returns the length to restore.
func (w *walker) push(elems ...string) int {
	n := len(w.path)
	for _, e := range elems {
		w.path = append(w.path, e...)
	}
	return n
}

func (w *walker) value(v reflect.Value) error {
	if out, ok := appendScalar(append(append(w.out, w.path...), '='), v); ok {
		if !v.IsZero() {
			w.out = append(out, '\n')
		}
		return nil
	}
	switch v.Kind() {
	case reflect.Invalid:
	case reflect.Func:
		if !v.IsNil() {
			w.line("fn")
		}
	case reflect.Chan:
		if !v.IsNil() {
			w.line("chan")
		}
	case reflect.Pointer:
		return w.pointer(v)
	case reflect.Interface:
		if v.IsNil() {
			return nil
		}
		e := v.Elem()
		return w.entry(e, w.push(".(", e.Type().String(), ")"))
	case reflect.Struct:
		return w.structFields(v)
	case reflect.Slice:
		if v.Len() == 0 {
			return nil
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			w.line(bytesText(v.Bytes()))
			return nil
		}
		n := w.push(".len")
		w.line(strconv.Itoa(v.Len()))
		w.path = w.path[:n]
		return w.elems(v)
	case reflect.Array:
		if v.Type().Elem().Kind() != reflect.Uint8 {
			return w.elems(v)
		}
		b := make([]byte, v.Len())
		for i := range b {
			b[i] = byte(v.Index(i).Uint())
		}
		if slices.ContainsFunc(b, func(c byte) bool { return c != 0 }) {
			w.line(bytesText(b))
		}
	case reflect.Map:
		return w.mapEntries(v)
	default:
		return fmt.Errorf("snapshot: %s: cannot walk %s", w.path, v.Type())
	}
	return nil
}

func (w *walker) pointer(v reflect.Value) error {
	if v.IsNil() {
		return nil
	}
	r := refOf(v)
	if label, ok := w.labels[r]; ok {
		w.line(label)
		return nil
	}
	if first, ok := w.seen[r]; ok {
		w.out = append(append(append(w.out, w.path...), "=&"...), w.paths[first.start:first.end]...)
		w.out = append(w.out, '\n')
		return nil
	}
	w.seen[r] = w.remember()
	if e := v.Elem(); e.Kind() == reflect.Array && e.Type().Elem().Kind() == reflect.Uint8 {
		// A buffer reference, like a byte slice: it prints even when the
		// bytes are all zero.
		w.line(bytesText(e.Bytes()))
		return nil
	}
	return w.value(v.Elem())
}

// entry walks a map value or an interface payload at the pushed path
// (restored to n) and prints its zero value rather than nothing, so the
// entry itself is not lost.
func (w *walker) entry(v reflect.Value, n int) error {
	mark := len(w.out)
	err := w.value(v)
	if err == nil && len(w.out) == mark {
		zero, ok := appendScalar(nil, reflect.Zero(v.Type()))
		if !ok {
			zero = []byte("{}")
		}
		w.line(string(zero))
	}
	w.path = w.path[:n]
	return err
}

func (w *walker) elems(v reflect.Value) error {
	for i := 0; i < v.Len(); i++ {
		e := v.Index(i)
		if e.IsZero() {
			continue // prints nothing; skipped before its path is built
		}
		n := len(w.path)
		w.path = append(strconv.AppendInt(append(w.path, '['), int64(i), 10), ']')
		err := w.value(e)
		w.path = w.path[:n]
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *walker) structFields(v reflect.Value) error {
	for _, f := range fieldsOf(v.Type()) {
		if f.err != nil {
			return fmt.Errorf("snapshot: %s: %w", w.path, f.err)
		}
		n := len(w.path)
		if n > 0 && w.path[n-1] != '.' {
			w.path = append(w.path, '.')
		}
		w.path = append(w.path, f.name...)
		mark := len(w.out)
		err := w.value(v.Field(f.index))
		if err == nil && f.hash && len(w.out) > mark {
			sum := sha256.Sum256(w.out[mark:])
			w.out = w.out[:mark]
			w.line("#" + hex.EncodeToString(sum[:8]))
		}
		w.path = w.path[:n]
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *walker) mapEntries(v reflect.Value) error {
	if kt := v.Type().Key(); !ordered(kt) {
		return fmt.Errorf("snapshot: %s: map key type %s has no total order", w.path, kt)
	}
	keys := v.MapKeys()
	slices.SortFunc(keys, compare)
	for _, k := range keys {
		n := len(w.path)
		w.path = append(appendKey(append(w.path, '['), k), ']')
		if err := w.entry(v.MapIndex(k), n); err != nil {
			return err
		}
	}
	return nil
}

// field is one walked struct field, resolved once per type.
type field struct {
	index int
	name  string
	hash  bool
	err   error // an unknown snap tag
}

var fieldCache sync.Map // reflect.Type → []field

func fieldsOf(t reflect.Type) []field {
	if fs, ok := fieldCache.Load(t); ok {
		return fs.([]field)
	}
	var fs []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		f := field{index: i, name: sf.Name}
		switch tag := sf.Tag.Get("snap"); tag {
		case "":
		case "-":
			continue
		case "hash":
			f.hash = true
		default:
			f.err = fmt.Errorf("field %s: unknown snap tag %q", sf.Name, tag)
		}
		fs = append(fs, f)
	}
	fieldCache.Store(t, fs)
	return fs
}

// appendScalar appends a boolean, number or string as the walk prints
// it; ok is false for every other kind.
func appendScalar(b []byte, v reflect.Value) (_ []byte, ok bool) {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(b, v.Uint(), 10), true
	case reflect.Float32, reflect.Float64:
		return strconv.AppendFloat(b, v.Float(), 'g', -1, 64), true
	case reflect.String:
		return strconv.AppendQuote(b, v.String()), true
	}
	return b, false
}

func bytesText(b []byte) string {
	sum := sha256.Sum256(b)
	return strconv.Itoa(len(b)) + ":" + hex.EncodeToString(sum[:8])
}

// ordered reports whether map keys of type t have a total order:
// booleans, numbers and strings, and structs and arrays of them.
func ordered(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return ordered(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !ordered(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	_, ok := appendScalar(nil, reflect.Zero(t))
	return ok
}

// compare orders two keys of one ordered type.
func compare(a, b reflect.Value) int {
	switch a.Kind() {
	case reflect.Bool:
		return cmp.Compare(strconv.FormatBool(a.Bool()), strconv.FormatBool(b.Bool()))
	case reflect.String:
		return cmp.Compare(a.String(), b.String())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return cmp.Compare(a.Int(), b.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return cmp.Compare(a.Uint(), b.Uint())
	case reflect.Float32, reflect.Float64:
		return cmp.Compare(a.Float(), b.Float())
	}
	for i := range parts(a) {
		if c := compare(part(a, i), part(b, i)); c != 0 {
			return c
		}
	}
	return 0
}

// parts and part index a struct key's fields or an array key's elements.
func parts(k reflect.Value) int {
	if k.Kind() == reflect.Struct {
		return k.NumField()
	}
	return k.Len()
}

func part(k reflect.Value, i int) reflect.Value {
	if k.Kind() == reflect.Struct {
		return k.Field(i)
	}
	return k.Index(i)
}

// appendKey renders a map key for a path: booleans and numbers bare,
// strings quoted, structs and arrays as "{a,b}".
func appendKey(b []byte, k reflect.Value) []byte {
	if out, ok := appendScalar(b, k); ok {
		return out
	}
	b = append(b, '{')
	for i := range parts(k) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendKey(b, part(k, i))
	}
	return append(b, '}')
}
