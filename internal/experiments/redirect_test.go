package experiments

import (
	"testing"

	"eum/internal/cdn"
	"eum/internal/mapping"
	"eum/internal/netmodel"
	"eum/internal/world"
)

var (
	redirectW      = world.MustGenerate(world.Config{Seed: 51, NumBlocks: 3000})
	redirectNet    = netmodel.NewDefault()
	redirectP      = cdn.MustGenerateUniverse(redirectW, cdn.Config{Seed: 51, NumDeployments: 300})
	redirectScorer = mapping.NewScorer(redirectW, redirectP, redirectNet, 600)
)

// farClient returns a public-resolver block far from its LDNS — where the
// mechanisms differ most.
func farClient(t *testing.T) *world.ClientBlock {
	t.Helper()
	for _, b := range redirectW.Blocks {
		if b.LDNS.IsPublic() && b.ClientLDNSDistance() > 3000 {
			return b
		}
	}
	t.Fatal("no far client")
	return nil
}

func resultsByMech(t *testing.T, b *world.ClientBlock, size int) map[mechanism]mechanismResult {
	t.Helper()
	rs, err := mechanismTimes(redirectScorer, redirectNet, b, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := map[mechanism]mechanismResult{}
	for _, r := range rs {
		out[r.Mechanism] = r
	}
	if len(out) != 4 {
		t.Fatalf("got %d mechanisms", len(out))
	}
	return out
}

func TestECSBestStartup(t *testing.T) {
	b := farClient(t)
	rs := resultsByMech(t, b, 500_000)
	// ECS pays no redirection penalty and reaches the proximal server:
	// it must have the best (or tied-best) startup.
	for m, r := range rs {
		if m == viaECS {
			continue
		}
		if rs[viaECS].StartupMs > r.StartupMs+1e-9 {
			t.Errorf("ECS startup %.1f worse than %v's %.1f", rs[viaECS].StartupMs, m, r.StartupMs)
		}
	}
}

func TestRedirectionPenaltyOrdering(t *testing.T) {
	b := farClient(t)
	rs := resultsByMech(t, b, 100_000)
	// Redirection mechanisms pay strictly more startup than ECS; the
	// HTTP redirect re-request costs slightly more than the metafile.
	if !(rs[viaECS].StartupMs < rs[metafile].StartupMs) {
		t.Errorf("metafile startup %.1f not above ECS %.1f", rs[metafile].StartupMs, rs[viaECS].StartupMs)
	}
	if !(rs[metafile].StartupMs < rs[httpRedirect].StartupMs) {
		t.Errorf("redirect startup %.1f not above metafile %.1f",
			rs[httpRedirect].StartupMs, rs[metafile].StartupMs)
	}
}

func TestRedirectServesFromProximalServer(t *testing.T) {
	b := farClient(t)
	rs := resultsByMech(t, b, 100_000)
	if rs[metafile].ServingDeployment != rs[viaECS].ServingDeployment {
		t.Error("metafile should serve from the EU-chosen deployment")
	}
	if rs[httpRedirect].ServingDeployment != rs[viaECS].ServingDeployment {
		t.Error("redirect should serve from the EU-chosen deployment")
	}
	if rs[nsOnly].ServingDeployment == rs[viaECS].ServingDeployment {
		t.Skip("NS and EU chose the same deployment for this client")
	}
}

func TestLargeDownloadsAmortiseRedirection(t *testing.T) {
	// §7: "a redirection penalty that is acceptable only for larger
	// downloads such as media files and software downloads."
	b := farClient(t)
	small := resultsByMech(t, b, 20_000) // 20 KB page
	// Large enough that transfer time dwarfs redirect round trips even for
	// a fast-access client whose NS-chosen server is very far away.
	large := resultsByMech(t, b, 2_000_000_000) // 2 GB software download

	smallPenalty := small[httpRedirect].TotalMs / small[viaECS].TotalMs
	largePenalty := large[httpRedirect].TotalMs / large[viaECS].TotalMs
	if largePenalty >= smallPenalty {
		t.Errorf("relative redirect penalty should shrink with size: %.3f -> %.3f",
			smallPenalty, largePenalty)
	}
	if largePenalty > 1.02 {
		t.Errorf("for a 2GB download the redirect penalty should be negligible, got %.3f", largePenalty)
	}
	// And for a large download, redirection beats staying on the NS
	// server (for this far client).
	if large[httpRedirect].TotalMs >= large[nsOnly].TotalMs {
		t.Error("redirect did not beat NS-only for a large download by a far client")
	}
}

func TestMechanismString(t *testing.T) {
	for m, want := range map[mechanism]string{
		nsOnly: "ns-only", viaECS: "ecs", metafile: "metafile", httpRedirect: "http-redirect",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestMechanismsDeadPlatform(t *testing.T) {
	w2 := world.MustGenerate(world.Config{Seed: 52, NumBlocks: 500})
	p2 := cdn.MustGenerateUniverse(w2, cdn.Config{Seed: 52, NumDeployments: 3})
	for _, d := range p2.Deployments {
		for _, s := range d.Servers {
			s.SetAlive(false)
		}
	}
	if _, err := mechanismTimes(mapping.NewScorer(w2, p2, redirectNet, 0), redirectNet, w2.Blocks[0], 1000, 1); err == nil {
		t.Error("dead platform should error")
	}
}
