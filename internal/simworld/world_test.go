package simworld

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"adwars/internal/jsast"
	"adwars/internal/web"
)

// testWorld is a 1/20-scale world (top-5K universe) shared by tests.
func testWorld(t *testing.T) *World {
	t.Helper()
	return New(Scaled(1, 20))
}

func TestWorldDeterministic(t *testing.T) {
	w1 := New(Scaled(5, 50))
	w2 := New(Scaled(5, 50))
	d1, d2 := w1.Deployments(), w2.Deployments()
	if len(d1) != len(d2) || len(d1) == 0 {
		t.Fatalf("deployments = %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i].SiteDomain != d2[i].SiteDomain || !d1[i].Start.Equal(d2[i].Start) ||
			d1[i].Vendor.Name != d2[i].Vendor.Name {
			t.Fatalf("deployment %d differs", i)
		}
	}
}

func TestAdoptionCurveMonotone(t *testing.T) {
	prev := -1.0
	for _, p := range adoptionCurve {
		f := adoptionFrac(p.t)
		if f < prev {
			t.Fatalf("adoptionFrac not monotone at %v", p.t)
		}
		prev = f
	}
	if adoptionFrac(time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)) != 0 {
		t.Error("pre-2011 adoption must be 0")
	}
	if adoptionFrac(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)) != 1 {
		t.Error("post-2017 adoption must be 1")
	}
}

func TestAdoptionTimeInvertsFrac(t *testing.T) {
	for _, q := range []float64{0.05, 0.2, 0.5, 0.8, 0.99} {
		ti := adoptionTime(q)
		f := adoptionFrac(ti)
		if f < q-0.02 || f > q+0.02 {
			t.Errorf("adoptionFrac(adoptionTime(%v)) = %v", q, f)
		}
	}
}

func TestTopFiveKAdoptionRate(t *testing.T) {
	w := New(DefaultConfig(3))
	top := map[string]bool{}
	for _, d := range w.TopDomains(5000) {
		top[d] = true
	}
	end := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	live := w.Cfg.LiveDate
	atEnd, atLive := 0, 0
	for _, d := range w.Deployments() {
		if !top[d.SiteDomain] {
			continue
		}
		if d.ActiveAt(end) {
			atEnd++
		}
		if d.ActiveAt(live) {
			atLive++
		}
	}
	// The paper: AAK triggers on 8.7% of the top-5K (≈435); deployment
	// must be in that neighborhood by Jul 2016 and higher by Apr 2017.
	if atEnd < 300 || atEnd > 620 {
		t.Errorf("top-5K deployments at 2016-07 = %d, want ~350-550", atEnd)
	}
	if atLive <= atEnd {
		t.Errorf("adoption must keep growing: %d → %d", atEnd, atLive)
	}
}

func TestTop100KAdoptionRate(t *testing.T) {
	w := New(DefaultConfig(3))
	live := w.Cfg.LiveDate
	n := 0
	for _, d := range w.Deployments() {
		r := w.RankOf(d.SiteDomain)
		if r >= 1 && r <= 100_000 && d.ActiveAt(live) {
			n++
		}
	}
	// §4.3/§5: ~5,070 detected anti-adblocking sites in the top-100K.
	if n < 4000 || n > 7000 {
		t.Errorf("top-100K deployments at live date = %d, want ~5,000", n)
	}
}

func TestTailDeploymentsBucketed(t *testing.T) {
	w := testWorld(t)
	mid, deep := 0, 0
	for _, d := range w.Deployments() {
		r := w.RankOf(d.SiteDomain)
		switch {
		case strings.HasPrefix(d.SiteDomain, "midtail"):
			mid++
			if r <= 100_000 || r > 1_000_000 {
				t.Fatalf("midtail rank %d out of bucket", r)
			}
		case strings.HasPrefix(d.SiteDomain, "deeptail"):
			deep++
			if r <= 1_000_000 {
				t.Fatalf("deeptail rank %d out of bucket", r)
			}
		}
	}
	if mid == 0 || deep == 0 {
		t.Fatal("tail deployments missing")
	}
}

func TestDeploymentStartsRespectVendorAvailability(t *testing.T) {
	w := testWorld(t)
	for _, d := range w.Deployments() {
		if d.Start.Before(d.Vendor.Available) {
			t.Fatalf("%s deploys %s before vendor %s exists (%s)",
				d.SiteDomain, d.Start, d.Vendor.Name, d.Vendor.Available)
		}
	}
}

func TestPageAtStability(t *testing.T) {
	w := testWorld(t)
	domain := w.TopDomains(10)[0]
	t1 := time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC)
	p1, ok := w.PageAt(domain, t1)
	if !ok {
		t.Fatal("top domain must have a page")
	}
	p2, _ := w.PageAt(domain, t1.AddDate(0, 1, 0)) // same content epoch (year)
	if len(p1.Requests) != len(p2.Requests) {
		t.Error("content changed within an epoch")
	}
	if _, ok := w.PageAt("not-in-universe.example", t1); ok {
		t.Error("unknown domain should have no page")
	}
}

func TestDeployedPageCarriesAntiAdblock(t *testing.T) {
	w := testWorld(t)
	var tested int
	for _, d := range w.Deployments() {
		if w.Universe.Rank(d.SiteDomain) == 0 {
			continue // tail domains have no pages
		}
		after := d.Start.AddDate(0, 2, 0)
		p, ok := w.PageAt(d.SiteDomain, after)
		if !ok {
			t.Fatalf("deployed site %s has no page", d.SiteDomain)
		}
		foundScript := false
		for _, s := range p.Scripts {
			if s.AntiAdblock {
				foundScript = true
				if _, _, err := jsast.ParseAndUnpack(s.Source); err != nil {
					t.Fatalf("anti-adblock script unparseable on %s: %v", d.SiteDomain, err)
				}
			}
		}
		if !foundScript {
			t.Fatalf("deployed site %s page lacks anti-adblock script", d.SiteDomain)
		}
		// Before deployment: clean page.
		before := d.Start.AddDate(0, -2, 0)
		if before.After(w.Cfg.Start) {
			pb, _ := w.PageAt(d.SiteDomain, before)
			for _, s := range pb.Scripts {
				if s.AntiAdblock {
					t.Fatalf("%s has anti-adblock before deployment start", d.SiteDomain)
				}
			}
		}
		tested++
		if tested >= 25 {
			break
		}
	}
	if tested == 0 {
		t.Fatal("no universe deployments to test")
	}
}

func TestStaticNoticeFraction(t *testing.T) {
	w := testWorld(t)
	at := time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)
	static, total := 0, 0
	for _, d := range w.Deployments() {
		if w.Universe.Rank(d.SiteDomain) == 0 || !d.ActiveAt(at) {
			continue
		}
		p, _ := w.PageAt(d.SiteDomain, at)
		total++
		if p.Root.Find(d.NoticeID) != nil {
			static++
		}
	}
	if total < 20 {
		t.Skip("too few active deployments in scaled world")
	}
	frac := float64(static) / float64(total)
	if frac < 0.02 || frac > 0.30 {
		t.Errorf("static notice fraction = %.2f, want ≈ %.2f",
			frac, w.Cfg.StaticNoticeFraction)
	}
}

func TestLivePageUnreachableFraction(t *testing.T) {
	w := testWorld(t)
	unreachable := 0
	domains := w.TopDomains(w.Cfg.UniverseSize)
	for _, d := range domains {
		if _, ok := w.LivePage(d); !ok {
			unreachable++
		}
	}
	frac := float64(unreachable) / float64(len(domains))
	if frac > 0.03 {
		t.Errorf("unreachable fraction = %.3f, want ≈ 0.006", frac)
	}
}

func TestBenignSitesStayBenign(t *testing.T) {
	w := testWorld(t)
	at := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	checked := 0
	for _, d := range w.NonDeployedDomains(40) {
		p, ok := w.PageAt(d, at)
		if !ok {
			continue
		}
		for _, s := range p.Scripts {
			if s.AntiAdblock {
				t.Fatalf("non-deployed site %s carries anti-adblock", d)
			}
			if _, _, err := jsast.ParseAndUnpack(s.Source); err != nil {
				t.Fatalf("benign script unparseable on %s: %v", d, err)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no benign sites checked")
	}
}

func TestCategoryOfCoversTail(t *testing.T) {
	w := testWorld(t)
	if w.CategoryOf("midtail0001.com").String() == "" {
		t.Error("tail category missing")
	}
	top := w.TopDomains(1)[0]
	s, _ := w.Universe.Site(top)
	if w.CategoryOf(top) != s.Category {
		t.Error("universe category mismatch")
	}
}

// TestConcurrentPageAt pins the documented guarantee that a built World is
// read-only: crawler workers and replay shards call PageAt/LivePage on the
// same World concurrently, and every worker must see the sequential
// baseline exactly: markup, every request (URL and type) and every script.
// The months cover pages with and without an active deployment, so the
// pooled content and deployment generators are shared under load too. Run
// under `go test -race`.
func TestConcurrentPageAt(t *testing.T) {
	w := New(Scaled(9, 50))
	domains := w.TopDomains(40)
	months := []time.Time{
		time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC),
	}
	render := func(p *web.Page) string {
		var b strings.Builder
		b.WriteString(web.RenderHTML(p))
		for _, r := range p.Requests {
			fmt.Fprintf(&b, "\n%s %s", r.URL, r.Type)
		}
		for _, s := range p.Scripts {
			b.WriteString(s.URL)
			b.WriteString(s.Source)
		}
		return b.String()
	}
	baseline := map[string]string{}
	deployed := 0
	for _, m := range months {
		for _, d := range domains {
			p, ok := w.PageAt(d, m)
			if !ok {
				t.Fatalf("PageAt(%s) missing", d)
			}
			baseline[d+m.String()] = render(p)
			for _, s := range p.Scripts {
				if s.AntiAdblock {
					deployed++
					break
				}
			}
		}
	}
	if deployed == 0 {
		t.Fatal("no page carries a deployment; the aab stream is not exercised")
	}

	done := make(chan error, 8)
	for worker := 0; worker < 8; worker++ {
		go func() {
			for i, d := range domains {
				m := months[(i+worker)%len(months)]
				p, ok := w.PageAt(d, m)
				if !ok {
					done <- fmt.Errorf("PageAt(%s) missing under concurrency", d)
					return
				}
				if render(p) != baseline[d+m.String()] {
					done <- fmt.Errorf("PageAt(%s, %s) differs under concurrency", d, m.Format("2006-01"))
					return
				}
				w.LivePage(d)
				w.RankOf(d)
			}
			done <- nil
		}()
	}
	for worker := 0; worker < 8; worker++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// draws records a mixed sequence of draws, the kinds page generation uses.
func draws(r *rand.Rand) []int64 {
	out := make([]int64, 0, 300)
	for i := 0; i < 100; i++ {
		out = append(out, int64(r.Intn(1000)), int64(r.Float64()*1e9), r.Int63())
	}
	return out
}

// TestPooledRNGMatchesFresh pins the property the pooled page generators
// rely on: reseeding a used generator draws exactly what a fresh source
// with the same seed draws, whatever state it was left in.
func TestPooledRNGMatchesFresh(t *testing.T) {
	w := &World{Cfg: Config{Seed: 17}}
	used := rand.New(rand.NewSource(99))
	for i, domain := range []string{"a.com", "news.example.org", "b.net"} {
		for _, epoch := range []int64{-1, 0, 2014, 1467331200} {
			want := draws(w.rng("content", domain, epoch))

			pooled := w.pooledRNG("content", domain, epoch)
			got := draws(pooled)
			pooled.Intn(1 + i) // leave it mid-stream for the next Get
			rngPool.Put(pooled)

			used.Intn(7)
			used.Seed(int64(w.hash64("content", domain, epoch)))
			reseeded := draws(used)
			for k := range want {
				if got[k] != want[k] || reseeded[k] != want[k] {
					t.Fatalf("%s/%d: draw %d: pooled %d, reseeded %d, fresh %d",
						domain, epoch, k, got[k], reseeded[k], want[k])
				}
			}
		}
	}
}
