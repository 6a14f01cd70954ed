package memory

import "sync/atomic"

// Word is an atomic 64-bit register supporting the three base
// operations of the paper's computation model (§2.1): read, write and
// Compare&Swap. Multi-field contents are bit-packed with the codecs in
// pack.go. The zero value is a register holding 0 with no observer.
type Word struct {
	v   atomic.Uint64
	obs Observer
}

// NewWord returns an uninstrumented register initialized to init.
func NewWord(init uint64) *Word {
	w := &Word{}
	w.v.Store(init)
	return w
}

// NewWordObserved returns a register initialized to init whose every
// access is reported to obs first. A nil obs is equivalent to NewWord.
func NewWordObserved(init uint64, obs Observer) *Word {
	w := NewWord(init)
	w.obs = obs
	return w
}

// Observe sets the observer for subsequent accesses. It must be called
// before the register is shared between goroutines.
func (w *Word) Observe(obs Observer) { w.obs = obs }

// Read returns the current value of the register.
func (w *Word) Read() uint64 {
	if w.obs != nil {
		w.obs.OnAccess(Read)
	}
	return w.v.Load()
}

// Write stores x into the register.
func (w *Word) Write(x uint64) {
	if w.obs != nil {
		w.obs.OnAccess(Write)
	}
	w.v.Store(x)
}

// CAS is the paper's X.C&S(old, new): atomically, if the register holds
// old it is set to new and CAS reports true; otherwise it reports false
// and the register is unchanged.
func (w *Word) CAS(old, new uint64) bool {
	if w.obs != nil {
		w.obs.OnAccess(CAS)
	}
	return w.v.CompareAndSwap(old, new)
}

// Flag is an atomic boolean register (the paper's CONTENTION and
// FLAG[i] registers). The zero value holds false with no observer.
type Flag struct {
	v   atomic.Bool
	obs Observer
}

// NewFlag returns an uninstrumented flag initialized to init.
func NewFlag(init bool) *Flag {
	f := &Flag{}
	f.v.Store(init)
	return f
}

// NewFlagObserved returns a flag whose every access is reported to obs
// first. A nil obs is equivalent to NewFlag.
func NewFlagObserved(init bool, obs Observer) *Flag {
	f := NewFlag(init)
	f.obs = obs
	return f
}

// Observe sets the observer for subsequent accesses. It must be called
// before the flag is shared between goroutines.
func (f *Flag) Observe(obs Observer) { f.obs = obs }

// Read returns the current value of the flag.
func (f *Flag) Read() bool {
	if f.obs != nil {
		f.obs.OnAccess(Read)
	}
	return f.v.Load()
}

// Write stores x into the flag.
func (f *Flag) Write(x bool) {
	if f.obs != nil {
		f.obs.OnAccess(Write)
	}
	f.v.Store(x)
}

// CAS atomically replaces old with new and reports whether it did.
func (f *Flag) CAS(old, new bool) bool {
	if f.obs != nil {
		f.obs.OnAccess(CAS)
	}
	return f.v.CompareAndSwap(old, new)
}

// Words is a fixed array of 64-bit registers sharing one observer, the
// shape of the paper's STACK[0..k] array. Each register is one machine
// word: the observer is stored once for the whole array. Every indexed
// access is reported to the observer exactly as the corresponding Word
// method would report it.
type Words struct {
	regs []atomic.Uint64
	obs  Observer
}

// NewWords returns n registers all initialized to init.
func NewWords(n int, init uint64) *Words {
	return NewWordsObserved(n, init, nil)
}

// NewWordsObserved returns n registers all initialized to init and all
// reporting to obs. A nil obs disables instrumentation.
func NewWordsObserved(n int, init uint64, obs Observer) *Words {
	return NewWordsInit(n, func(int) uint64 { return init }, obs)
}

// NewWordsInit returns n registers, the i-th initialized to init(i),
// all reporting to obs. Initialization is not observed (it is not a
// shared access of the algorithm being measured).
func NewWordsInit(n int, init func(i int) uint64, obs Observer) *Words {
	a := &Words{regs: make([]atomic.Uint64, n), obs: obs}
	for i := range a.regs {
		a.regs[i].Store(init(i))
	}
	return a
}

// Read returns the current value of register i.
func (a *Words) Read(i int) uint64 {
	if a.obs != nil {
		a.obs.OnAccess(Read)
	}
	return a.regs[i].Load()
}

// Write stores x into register i.
func (a *Words) Write(i int, x uint64) {
	if a.obs != nil {
		a.obs.OnAccess(Write)
	}
	a.regs[i].Store(x)
}

// CAS is X[i].C&S(old, new): atomically, if register i holds old it is
// set to new and CAS reports true; otherwise it reports false and the
// register is unchanged.
func (a *Words) CAS(i int, old, new uint64) bool {
	if a.obs != nil {
		a.obs.OnAccess(CAS)
	}
	return a.regs[i].CompareAndSwap(old, new)
}

// Len returns the number of registers.
func (a *Words) Len() int { return len(a.regs) }
