package splitrt

import (
	"testing"
	"time"

	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/obs"
	"shredder/internal/tensor"
)

// TestEdgeRolesAgree: against one audited server, a Dial client and a
// one-backend pool built from the same split, source and seed are the same
// edge. They put bit-equal bytes on the wire, their records carry the same
// attribution — mode "stored", the drawn member for a batch of one and -2 for
// a batch of three, the in-vivo value their monitor sampled — and their
// monitors count the same queries. (Before core.Edge the pool attached no
// note and fed no monitor: its noised query was recorded as mode "none".)
func TestEdgeRolesAgree(t *testing.T) {
	split, srv, addr, _ := auditRig(t, 1, time.Millisecond)
	noise := &core.Collection{Shape: []int{1, 2, 2}, InVivo: []float64{0.25, 0.5, 0.75}}
	for m := 0; m < 3; m++ {
		member := tensor.New(1, 2, 2)
		for i := range member.Data() {
			member.Data()[i] = 0.5*float64(i) - 0.3*float64(m+1)
		}
		noise.Members = append(noise.Members, member)
	}
	const seed, calls = 31, 2
	for _, n := range []int{1, 3} {
		x := tensor.New(n, 1, 2, 2)
		for i := range x.Data() {
			x.Data()[i] = float64(i%5) + 0.5
		}
		// The member the last call of a batch of one draws.
		want, rng := int32(-2), tensor.NewRNG(seed)
		for i := 0; i < calls*n; i++ {
			if d := noise.DrawInto(nil, rng); n == 1 {
				want = int32(d.Member)
			}
		}

		clientMon := core.NewPrivacyMonitor(obs.NewRegistry(), noise, 1, 1)
		client, err := Dial(addr, split, "cut", noise, seed, WithPrivacyTelemetry(clientMon))
		if err != nil {
			t.Fatal(err)
		}
		poolMon := core.NewPrivacyMonitor(obs.NewRegistry(), noise, 1, 1)
		pool, err := NewPool(split, "cut", noise, seed, []string{addr}, WithPrivacyTelemetry(poolMon))
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < calls; call++ {
			if _, err := client.Infer(x); err != nil {
				t.Fatal(err)
			}
			if _, err := pool.Infer(x); err != nil {
				t.Fatal(err)
			}
		}
		viaClient := auditRecordOf(t, client.LastTrace(), srv)
		viaPool := auditRecordOf(t, pool.backends[0].client.LastTrace(), srv)
		client.Close()
		pool.Close()

		if viaPool.ActDigest != viaClient.ActDigest {
			t.Errorf("batch of %d: the pool put other bytes on the wire than the client", n)
		}
		for _, role := range []struct {
			name string
			rec  audit.Record
			mon  *core.PrivacyMonitor
		}{{"client", viaClient, clientMon}, {"pool", viaPool, poolMon}} {
			if role.rec.Mode != core.ModeStored || role.rec.Member != want {
				t.Errorf("batch of %d: the %s's record says mode %q member %d, want %q and %d",
					n, role.name, role.rec.Mode, role.rec.Member, core.ModeStored, want)
			}
			if !role.rec.Sampled || role.rec.InVivo <= 0 {
				t.Errorf("batch of %d: the %s's sampled in-vivo value did not reach the record: %+v", n, role.name, role.rec)
			}
			if got := role.mon.Queries(); got != calls*int64(n) {
				t.Errorf("batch of %d: the %s's monitor saw %d queries, want %d", n, role.name, got, calls*n)
			}
		}
		if viaPool.InVivo != viaClient.InVivo || poolMon.Alerts() != clientMon.Alerts() {
			t.Errorf("batch of %d: in-vivo %g and %d alerts through the pool, %g and %d through the client",
				n, viaPool.InVivo, poolMon.Alerts(), viaClient.InVivo, clientMon.Alerts())
		}
	}
}
