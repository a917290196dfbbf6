package cypher

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestPlanCacheHitsAndMisses(t *testing.T) {
	c := NewPlanCache(8)
	q1, err := c.Get("RETURN 1 AS n")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Get("RETURN 1 AS n")
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("repeated Get should return the identical cached plan")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
}

func TestPlanCacheParseErrorNotCached(t *testing.T) {
	c := NewPlanCache(8)
	for i := 0; i < 3; i++ {
		if _, err := c.Get("MATCH ("); err == nil {
			t.Fatal("expected parse error")
		}
	}
	st := c.Stats()
	if st.Size != 0 {
		t.Errorf("parse errors must not occupy cache slots, size = %d", st.Size)
	}
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3", st.Misses)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := NewPlanCache(2)
	get := func(src string) {
		t.Helper()
		if _, err := c.Get(src); err != nil {
			t.Fatal(err)
		}
	}
	get("RETURN 1") // {1}
	get("RETURN 2") // {1,2}
	get("RETURN 1") // touch 1 → 2 is now LRU
	get("RETURN 3") // evicts 2 → {1,3}
	st := c.Stats()
	if st.Size != 2 {
		t.Fatalf("size = %d, want 2", st.Size)
	}
	hitsBefore := c.Stats().Hits
	get("RETURN 1")
	get("RETURN 3")
	if got := c.Stats().Hits - hitsBefore; got != 2 {
		t.Errorf("1 and 3 should still be cached, got %d hits", got)
	}
	get("RETURN 2") // must re-parse (was evicted)
	if c.Stats().Misses < 4 {
		t.Errorf("evicted entry should miss, misses = %d", c.Stats().Misses)
	}
}

func TestPlanCacheConcurrentUse(t *testing.T) {
	c := NewPlanCache(16)
	g := ctxTestGraph(100)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := fmt.Sprintf("MATCH (n:AS) RETURN count(n) AS c%d", i%4)
				q, err := c.Get(src)
				if err != nil {
					errs <- err
					return
				}
				if _, err := Exec(context.Background(), g, q, ExecOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Size != 4 {
		t.Errorf("size = %d, want 4 distinct plans", st.Size)
	}
	if st.Hits == 0 {
		t.Error("expected cache hits under concurrent repetition")
	}
}
