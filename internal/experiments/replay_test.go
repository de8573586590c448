package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"adwars/internal/abp"
	"adwars/internal/simworld"
)

// replayLab is a small dedicated lab so the determinism tests can crawl
// once and replay many times without disturbing the shared test lab.
func replayLab(t *testing.T) (*Lab, *ReplayRun) {
	t.Helper()
	l := NewLab(simworld.Scaled(7, 40))
	run, err := l.PrepareReplay(context.Background(), RetroConfig{
		Months: l.RetroMonths(6),
	})
	if err != nil {
		t.Fatalf("PrepareReplay: %v", err)
	}
	return l, run
}

// TestReplayShardDeterminism is the acceptance gate for the sharded
// pipeline: one shard, many shards, and the linear-scan ablation must all
// render byte-identical Figure 5/6 output and identical downstream
// accounting — sharding changes wall-clock, never results.
func TestReplayShardDeterminism(t *testing.T) {
	_, run := replayLab(t)
	seq := run.Run(1, false)
	par := run.Run(8, false)
	lin := run.Run(1, true)

	for _, other := range []struct {
		name string
		res  *RetroResult
	}{{"8 shards", par}, {"linear scan", lin}} {
		if got, want := other.res.RenderFig5(), seq.RenderFig5(); got != want {
			t.Errorf("%s: Figure 5 diverged\n--- sequential\n%s--- got\n%s", other.name, want, got)
		}
		if got, want := other.res.RenderFig6(), seq.RenderFig6(); got != want {
			t.Errorf("%s: Figure 6 diverged\n--- sequential\n%s--- got\n%s", other.name, want, got)
		}
		if got, want := len(other.res.CorpusPos), len(seq.CorpusPos); got != want {
			t.Errorf("%s: CorpusPos %d, want %d", other.name, got, want)
		}
		if got, want := len(other.res.CorpusNeg), len(seq.CorpusNeg); got != want {
			t.Errorf("%s: CorpusNeg %d, want %d", other.name, got, want)
		}
		for _, name := range ListNames {
			if got, want := other.res.ThirdPartyMatched[name], seq.ThirdPartyMatched[name]; got != want {
				t.Errorf("%s: ThirdPartyMatched[%s] = %d, want %d", other.name, name, got, want)
			}
			if got, want := len(other.res.FirstMatch[name]), len(seq.FirstMatch[name]); got != want {
				t.Errorf("%s: FirstMatch[%s] has %d sites, want %d", other.name, name, got, want)
			}
			for site, when := range seq.FirstMatch[name] {
				if !other.res.FirstMatch[name][site].Equal(when) {
					t.Errorf("%s: FirstMatch[%s][%s] = %v, want %v",
						other.name, name, site, other.res.FirstMatch[name][site], when)
				}
			}
		}
	}
	// The corpus order feeds §5's dataset split; it must match exactly,
	// not just in size.
	for i := range seq.CorpusPos {
		if par.CorpusPos[i] != seq.CorpusPos[i] {
			t.Fatalf("8 shards: CorpusPos[%d] differs", i)
		}
	}
}

// TestRetroStreamingEquivalence is the gate for the streaming crawl:
// RunRetrospective folds each month as soon as it is crawled and drops it,
// while PrepareReplay + Run keep every month and fold afterwards. Both
// must produce the same figures, first-match months, third-party tallies
// and corpora, in the same order, at every shard count and with the
// linear-scan ablation.
func TestRetroStreamingEquivalence(t *testing.T) {
	l, run := replayLab(t)
	for _, c := range []struct {
		shards int
		linear bool
	}{{1, false}, {8, false}, {1, true}} {
		name := fmt.Sprintf("shards=%d linear=%v", c.shards, c.linear)
		want := run.Run(c.shards, c.linear)
		got, err := l.RunRetrospective(context.Background(), RetroConfig{
			Months: l.RetroMonths(6), Shards: c.shards, LinearScan: c.linear,
		})
		if err != nil {
			t.Fatalf("%s: RunRetrospective: %v", name, err)
		}
		if g, w := got.RenderFig5(), want.RenderFig5(); g != w {
			t.Errorf("%s: Figure 5 diverged\n--- prepared\n%s--- streamed\n%s", name, w, g)
		}
		if g, w := got.RenderFig6(), want.RenderFig6(); g != w {
			t.Errorf("%s: Figure 6 diverged\n--- prepared\n%s--- streamed\n%s", name, w, g)
		}
		if !reflect.DeepEqual(got.FirstMatch, want.FirstMatch) {
			t.Errorf("%s: FirstMatch diverged", name)
		}
		if !reflect.DeepEqual(got.ThirdPartyMatched, want.ThirdPartyMatched) {
			t.Errorf("%s: ThirdPartyMatched = %v, want %v", name, got.ThirdPartyMatched, want.ThirdPartyMatched)
		}
		if !reflect.DeepEqual(got.CorpusPos, want.CorpusPos) {
			t.Errorf("%s: CorpusPos diverged (%d vs %d scripts)", name, len(got.CorpusPos), len(want.CorpusPos))
		}
		if !reflect.DeepEqual(got.CorpusNeg, want.CorpusNeg) {
			t.Errorf("%s: CorpusNeg diverged (%d vs %d scripts)", name, len(got.CorpusNeg), len(want.CorpusNeg))
		}
	}
}

// TestLiveShardDeterminism repeats the guarantee for the §4.3 crawl.
func TestLiveShardDeterminism(t *testing.T) {
	l := NewLab(simworld.Scaled(7, 40))
	seq, err := l.RunLive(context.Background(), LiveConfig{Workers: 2, Shards: 1})
	if err != nil {
		t.Fatalf("RunLive sequential: %v", err)
	}
	par, err := l.RunLive(context.Background(), LiveConfig{Workers: 2, Shards: 8})
	if err != nil {
		t.Fatalf("RunLive sharded: %v", err)
	}
	if got, want := par.Render(), seq.Render(); got != want {
		t.Errorf("live coverage diverged under sharding\n--- 1 shard\n%s--- 8 shards\n%s", want, got)
	}
	if len(par.Scripts) != len(seq.Scripts) {
		t.Fatalf("live scripts: %d vs %d", len(par.Scripts), len(seq.Scripts))
	}
	for i := range seq.Scripts {
		if par.Scripts[i] != seq.Scripts[i] {
			t.Fatalf("live Scripts[%d] differs: %v vs %v", i, par.Scripts[i], seq.Scripts[i])
		}
	}
}

// TestIndexedAgreesWithLinearOverHistories is the differential test the
// index satellite asks for: over the generated AAK/CEL histories and URL
// populations drawn from real world pages, the indexed all-matches lookup
// must return exactly what the linear reference scan returns.
func TestIndexedAgreesWithLinearOverHistories(t *testing.T) {
	l, _ := lab(t)
	months := l.RetroMonths(12)
	domains := l.World.TopDomains(60)
	for _, month := range months {
		for name, h := range l.histories() {
			list := h.ListAt(month)
			if list == nil {
				continue
			}
			for _, d := range domains {
				page, ok := l.World.PageAt(d, month)
				if !ok {
					continue
				}
				for _, rq := range page.Requests {
					q := abp.Request{URL: rq.URL, Type: rq.Type, PageDomain: d}
					got := list.MatchingHTTPRules(q)
					want := list.MatchingHTTPRulesLinear(q)
					if len(got) != len(want) {
						t.Fatalf("%s at %s: %q: indexed %d rules, linear %d",
							name, month.Format("2006-01"), rq.URL, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s at %s: %q: rule %d: %q vs %q",
								name, month.Format("2006-01"), rq.URL, i, got[i].Raw, want[i].Raw)
						}
					}
				}
			}
		}
	}
}
