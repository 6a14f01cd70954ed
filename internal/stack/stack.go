package stack

import "errors"

// The paper's total operations never block: on a full or empty stack
// they return a value rather than waiting (§1.1). Weak operations may
// additionally abort. These sentinels encode the three outcomes.
var (
	// ErrFull is returned by push on a full stack (the paper's
	// "full" result, line 03 of Figure 1).
	ErrFull = errors.New("stack: full")
	// ErrEmpty is returned by pop on an empty stack (the paper's
	// "empty" result, line 10 of Figure 1).
	ErrEmpty = errors.New("stack: empty")
	// ErrAborted is the paper's ⊥: the weak operation detected
	// interference and had no effect. Only Try* operations return it;
	// strong operations never do (Lemma 1).
	ErrAborted = errors.New("stack: aborted by contention")
)

// Strong is the interface of total, never-aborting stacks whose
// operations take the calling process identity (needed by the
// starvation-free slow path). Push returns nil or ErrFull; Pop returns
// the popped value or ErrEmpty.
type Strong[T any] interface {
	Push(pid int, v T) error
	Pop(pid int) (T, error)
}

// Weak is the interface of abortable stacks: single attempts by the
// calling process that may return ErrAborted, in which case the
// operation had no effect and may be retried. The pid routes recycled
// slots and nodes through per-pid free lists; backends without them
// ignore it.
type Weak[T any] interface {
	TryPush(pid int, v T) error
	TryPop(pid int) (T, error)
}
