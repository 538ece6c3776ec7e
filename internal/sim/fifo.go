package sim

// fifo is a FIFO over a slice: s[head:] are the queued entries. pop
// advances the head and zeroes the vacated slot, so the queue never pins
// what it delivered, and the backing array is reused once the queue
// empties, so steady-state traffic does not grow it.
type fifo[T any] struct {
	s    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.s) - f.head }
func (f *fifo[T]) push(x T) { f.s = append(f.s, x) }
func (f *fifo[T]) peek() T  { return f.s[f.head] }

func (f *fifo[T]) pop() T {
	x := f.s[f.head]
	var zero T
	f.s[f.head] = zero
	if f.head++; f.head == len(f.s) {
		f.s, f.head = f.s[:0], 0
	}
	return x
}

// freeList recycles records so that steady-state traffic allocates none.
// put zeroes a record, so the list never pins what it referenced.
type freeList[T any] []*T

func (l *freeList[T]) get() *T {
	n := len(*l) - 1
	if n < 0 {
		return new(T)
	}
	x := (*l)[n]
	(*l)[n] = nil
	*l = (*l)[:n]
	return x
}

func (l *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	*l = append(*l, x)
}
