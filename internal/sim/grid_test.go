package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sos/internal/metrics"
	"sos/internal/mobility"
)

// fleetPositions builds a 200-node random-waypoint fleet in a dense area
// (so real contacts occur every tick) and samples it at the given instant.
func fleetPositions(t testing.TB, n int, at time.Time) ([]mobility.Point, []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(321))
	models := make([]mobility.Model, n)
	for i := range models {
		m, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Area: mobility.Area{W: 800, H: 800}, Start: start, Duration: 24 * time.Hour,
		}, rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			t.Fatalf("NewRandomWaypoint: %v", err)
		}
		models[i] = m
	}
	positions := make([]mobility.Point, n)
	active := make([]bool, n)
	actRng := rand.New(rand.NewSource(int64(at.Unix())))
	for i, m := range models {
		positions[i] = m.Position(at)
		active[i] = actRng.Float64() < 0.8 // a fifth of the fleet sleeps
	}
	return positions, active
}

// TestGridMatchesPairwiseSweep is the equivalence gate the tentpole
// stands on: the grid index must find exactly the contact set the old
// O(N²) sweep found, on a 200-node fleet, across many ticks including
// boundary-straddling positions and sleeping nodes.
func TestGridMatchesPairwiseSweep(t *testing.T) {
	const n = 200
	const rangeM = 35.0
	ix := NewContactIndex(rangeM)
	totalPairs := 0
	for tick := 0; tick < 48; tick++ {
		at := start.Add(time.Duration(tick) * 30 * time.Minute)
		positions, active := fleetPositions(t, n, at)

		gridSet := make(map[[2]int32]bool)
		ix.Sweep(positions, active, func(i, j int32) {
			if gridSet[[2]int32{i, j}] {
				t.Fatalf("tick %d: grid reported pair (%d,%d) twice", tick, i, j)
			}
			gridSet[[2]int32{i, j}] = true
		})
		pairSet := make(map[[2]int32]bool)
		PairwiseContacts(positions, active, rangeM, func(i, j int32) {
			pairSet[[2]int32{i, j}] = true
		})

		for p := range pairSet {
			if !gridSet[p] {
				t.Errorf("tick %d: pairwise found (%d,%d), grid missed it (dist %f)",
					tick, p[0], p[1], positions[p[0]].DistanceTo(positions[p[1]]))
			}
		}
		for p := range gridSet {
			if !pairSet[p] {
				t.Errorf("tick %d: grid invented pair (%d,%d) (dist %f)",
					tick, p[0], p[1], positions[p[0]].DistanceTo(positions[p[1]]))
			}
		}
		totalPairs += len(pairSet)

		st := ix.Stats()
		if st.Checks >= n*(n-1)/2 {
			t.Errorf("tick %d: grid checked %d candidate pairs, no better than the %d pairwise tests",
				tick, st.Checks, n*(n-1)/2)
		}
	}
	if totalPairs == 0 {
		t.Fatal("scenario produced no contacts at all; the equivalence test is vacuous")
	}
}

// TestGridExactRangeBoundary pins the predicate at the cell boundary:
// pairs at exactly the radio range are contacts (the old sweep used <=),
// including when they land in adjacent cells.
func TestGridExactRangeBoundary(t *testing.T) {
	const rangeM = 35.0
	positions := []mobility.Point{
		{X: 0, Y: 0},
		{X: rangeM, Y: 0},            // exactly in range, adjacent cell
		{X: rangeM * 2.0001, Y: 0},   // just out of range of node 1
		{X: -rangeM * 0.5, Y: 0.001}, // in range of node 0, negative cell
	}
	var got [][2]int32
	NewContactIndex(rangeM).Sweep(positions, nil, func(i, j int32) {
		got = append(got, [2]int32{i, j})
	})
	var want [][2]int32
	PairwiseContacts(positions, nil, rangeM, func(i, j int32) {
		want = append(want, [2]int32{i, j})
	})
	if fmt.Sprint(got) != fmt.Sprint(want) && len(got) != len(want) {
		t.Fatalf("grid %v, pairwise %v", got, want)
	}
	found := false
	for _, p := range got {
		if p == [2]int32{0, 1} {
			found = true
		}
	}
	if !found {
		t.Errorf("pair at exactly range %f not detected: %v", rangeM, got)
	}
}

// TestSimDeterminismAtScale replays a 150-node random-waypoint fleet
// twice through the full stack and demands identical series — the grid
// index, the sharded position pass, the link diff, the message layer's
// send order and the seeded crypto must all be order-stable.
func TestSimDeterminismAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node crypto fleet")
	}
	run := func() *Result {
		cfg := scaleConfig(t, 150, 45*time.Minute)
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Collector.Disseminations() != b.Collector.Disseminations() {
		t.Errorf("disseminations differ: %d vs %d", a.Collector.Disseminations(), b.Collector.Disseminations())
	}
	if got, want := len(a.Collector.Deliveries(metrics.AllHops)), len(b.Collector.Deliveries(metrics.AllHops)); got != want {
		t.Errorf("deliveries differ: %d vs %d", got, want)
	}
	if !reflect.DeepEqual(a.Collector.Deliveries(metrics.AllHops), b.Collector.Deliveries(metrics.AllHops)) {
		t.Error("delivery records (time, hops) differ between runs")
	}
	// Every frame, byte and contact replays: signature lengths, and so
	// transfer times, do not depend on the run.
	if a.MediumStats != b.MediumStats {
		t.Errorf("medium history differs: %+v vs %+v", a.MediumStats, b.MediumStats)
	}
	if a.MediumStats.ContactsUp == 0 {
		t.Error("scenario produced no contacts")
	}
	// Handshake guards and redials fire on the virtual clock, with
	// jitter drawn from the peers' names, so they replay too.
	reconnects := uint64(0)
	for handle, sa := range a.NodeStats {
		sb := b.NodeStats[handle]
		if sa.Adhoc.HandshakesOK != sb.Adhoc.HandshakesOK ||
			sa.Message.ConnectsAttempted != sb.Message.ConnectsAttempted ||
			sa.Message.Reconnects != sb.Message.Reconnects {
			t.Errorf("node %s connection history differs: handshakes %d vs %d, connects %d vs %d, reconnects %d vs %d",
				handle, sa.Adhoc.HandshakesOK, sb.Adhoc.HandshakesOK,
				sa.Message.ConnectsAttempted, sb.Message.ConnectsAttempted,
				sa.Message.Reconnects, sb.Message.Reconnects)
		}
		reconnects += sa.Message.Reconnects
	}
	if reconnects == 0 {
		t.Error("scenario fired no redials; the comparison covers nothing")
	}
}

// scaleConfig builds a dense random-waypoint fleet with a small post
// workload, every node following node 0.
func scaleConfig(t testing.TB, n int, dur time.Duration) Config {
	t.Helper()
	master := rand.New(rand.NewSource(77))
	nodes := make([]NodeSpec, n)
	for i := range nodes {
		m, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
			Area: mobility.Area{W: 600, H: 600}, Start: start, Duration: dur + time.Hour,
			SpeedMin: 1, SpeedMax: 3,
		}, rand.New(rand.NewSource(master.Int63())))
		if err != nil {
			t.Fatalf("NewRandomWaypoint: %v", err)
		}
		nodes[i] = NodeSpec{Handle: fmt.Sprintf("n%03d", i), Mobility: m}
		if i > 0 {
			nodes[i].Follows = []string{"n000"}
		}
	}
	var workload []Event
	for p := 0; p < 5; p++ {
		workload = append(workload, Event{
			At:      start.Add(time.Duration(p+1) * 2 * time.Minute),
			Handle:  "n000",
			Action:  ActionPost,
			Payload: []byte(fmt.Sprintf("scale post %d", p)),
		})
	}
	return Config{
		Start: start, Duration: dur, Tick: 30 * time.Second, Range: 35,
		Scheme: "epidemic", Seed: 9, Nodes: nodes, Workload: workload,
	}
}

// TestSamplePositionsSharded forces the parallel position pass (this
// may be the only multi-core execution on a single-CPU CI box) and
// checks it fills exactly what the serial pass fills.
func TestSamplePositionsSharded(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	const n = 600 // > minPerShard × 2, so the pass genuinely shards
	cfg := scaleConfig(t, n, 10*time.Minute)
	// Make half the fleet sleepy so the inactive branch shards too.
	for i := range cfg.Nodes {
		if i%2 == 1 {
			cfg.Nodes[i].Activity = func(time.Time) bool { return false }
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	at := start.Add(7 * time.Minute)
	s.samplePositions(at)

	for i, node := range s.nodes {
		wantActive := i%2 == 0
		if s.active[i] != wantActive {
			t.Fatalf("node %d active = %v, want %v", i, s.active[i], wantActive)
		}
		want := mobility.Point{}
		if wantActive {
			want = node.Model.Position(at)
		}
		if s.positions[i] != want {
			t.Fatalf("node %d position = %v, want %v", i, s.positions[i], want)
		}
	}
}

// TestTraceDrivenContacts replays a hand-written encounter trace with no
// mobility at all: the medium must see exactly the scripted link
// transitions and the message must ride them.
func TestTraceDrivenContacts(t *testing.T) {
	contacts := []ContactEvent{
		{At: start.Add(2 * time.Minute), A: "alice", B: "bob", Up: true},
		{At: start.Add(10 * time.Minute), A: "alice", B: "bob", Up: false},
		{At: start.Add(20 * time.Minute), A: "bob", B: "carol", Up: true},
		{At: start.Add(28 * time.Minute), A: "bob", B: "carol", Up: false},
	}
	cfg := Config{
		Start:    start,
		Duration: 40 * time.Minute,
		Tick:     30 * time.Second,
		Scheme:   "epidemic",
		Seed:     3,
		Nodes: []NodeSpec{
			{Handle: "alice"}, // no mobility model: trace mode allows it
			{Handle: "bob"},
			{Handle: "carol", Follows: []string{"alice"}},
		},
		Workload: []Event{
			{At: start.Add(time.Minute), Handle: "alice", Action: ActionPost, Payload: []byte("ride the trace")},
		},
		Contacts: contacts,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.MediumStats.ContactsUp != 2 || res.MediumStats.ContactsDown != 2 {
		t.Errorf("contacts up/down = %d/%d, want 2/2 (the scripted transitions)",
			res.MediumStats.ContactsUp, res.MediumStats.ContactsDown)
	}
	// alice → bob during the first window, bob → carol during the
	// second: a two-hop store-and-forward delivery with no geometry.
	deliveries := res.Collector.Deliveries(metrics.AllHops)
	if len(deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(deliveries))
	}
	if deliveries[0].Hops != 2 {
		t.Errorf("hops = %d, want 2 (via bob's buffer)", deliveries[0].Hops)
	}
	if d := deliveries[0].Delay(); d < 18*time.Minute || d > 30*time.Minute {
		t.Errorf("delay = %v, want ≈ 19–27 min (the DTN wait for the second contact)", d)
	}
}

// TestTraceRespectsActivity: the trace scripts the radios, but churn
// (app activity) still gates the effective link — a sleeping node drops
// out of its scripted contact and rejoins on wake if still scripted.
func TestTraceRespectsActivity(t *testing.T) {
	sleepFrom, sleepTo := start.Add(4*time.Minute), start.Add(16*time.Minute)
	cfg := Config{
		Start:    start,
		Duration: 30 * time.Minute,
		Tick:     30 * time.Second,
		Scheme:   "epidemic",
		Seed:     4,
		Nodes: []NodeSpec{
			{Handle: "alice"},
			{Handle: "bob", Follows: []string{"alice"}, Activity: func(at time.Time) bool {
				return at.Before(sleepFrom) || !at.Before(sleepTo)
			}},
		},
		// One long scripted contact spanning bob's nap.
		Contacts: []ContactEvent{
			{At: start.Add(2 * time.Minute), A: "alice", B: "bob", Up: true},
			{At: start.Add(28 * time.Minute), A: "alice", B: "bob", Up: false},
		},
		Workload: []Event{
			// Posted while bob sleeps: deliverable only after he wakes.
			{At: start.Add(8 * time.Minute), Handle: "alice", Action: ActionPost, Payload: []byte("wake up")},
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The link must have cycled: up at 2m, cut when bob sleeps at the 4m
	// tick, re-established at the 16m tick, cut by the trace at 28m.
	if res.MediumStats.ContactsUp != 2 || res.MediumStats.ContactsDown != 2 {
		t.Errorf("contacts up/down = %d/%d, want 2/2 (sleep severs the scripted link)",
			res.MediumStats.ContactsUp, res.MediumStats.ContactsDown)
	}
	deliveries := res.Collector.Deliveries(metrics.AllHops)
	if len(deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(deliveries))
	}
	// Delivery happens after wake (16m), not at post time (8m).
	if d := deliveries[0].Delay(); d < 7*time.Minute {
		t.Errorf("delay = %v, want ≥ ~8m (bob was asleep when alice posted)", d)
	}
}

// TestEventsInPartialTailTick: a duration that is not a multiple of the
// tick must not drop events scheduled after the last whole tick.
func TestEventsInPartialTailTick(t *testing.T) {
	cfg := Config{
		Start:    start,
		Duration: 100 * time.Second, // ticks at 0/30/60/90; tail (90,100]
		Tick:     30 * time.Second,
		Scheme:   "epidemic",
		Seed:     6,
		Nodes: []NodeSpec{
			{Handle: "alice"},
			{Handle: "bob", Follows: []string{"alice"}},
		},
		Contacts: []ContactEvent{
			{At: start.Add(95 * time.Second), A: "alice", B: "bob", Up: true},
		},
		Workload: []Event{
			{At: start.Add(93 * time.Second), Handle: "alice", Action: ActionPost, Payload: []byte("tail post")},
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Posts != 1 {
		t.Errorf("posts = %d, want 1 (the tail post must execute)", res.Posts)
	}
	if res.MediumStats.ContactsUp != 1 {
		t.Errorf("contacts up = %d, want 1 (the tail contact must be applied)", res.MediumStats.ContactsUp)
	}
}

func TestTraceValidationInSim(t *testing.T) {
	cfg := Config{
		Start: start, Duration: time.Hour, Scheme: "epidemic", Seed: 1,
		Nodes: []NodeSpec{{Handle: "a"}, {Handle: "b"}},
		Contacts: []ContactEvent{
			{At: start, A: "a", B: "ghost", Up: true},
		},
	}
	if _, err := New(cfg); err == nil {
		t.Error("trace naming an unknown handle accepted")
	}
	cfg.Contacts = []ContactEvent{{At: start, A: "a", B: "a", Up: true}}
	if _, err := New(cfg); err == nil {
		t.Error("self-contact accepted")
	}
	// No contacts and no mobility: still an error.
	cfg.Contacts = nil
	if _, err := New(cfg); err == nil {
		t.Error("missing mobility accepted without a trace")
	}
}

func TestParseContactTraceCSV(t *testing.T) {
	input := `node,peer,op,at
# comment line
alice,bob,up,120
alice,bob,down,300.5
bob,carol,up,2017-04-03T01:00:00Z
`
	events, handles, err := ParseContactTrace(strings.NewReader(input), start)
	if err != nil {
		t.Fatalf("ParseContactTrace: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if got := events[0]; got.A != "alice" || got.B != "bob" || !got.Up || !got.At.Equal(start.Add(2*time.Minute)) {
		t.Errorf("event 0 = %+v", got)
	}
	if got := events[1]; got.Up || !got.At.Equal(start.Add(300*time.Second+500*time.Millisecond)) {
		t.Errorf("event 1 = %+v", got)
	}
	if got := events[2]; !got.At.Equal(start.Add(time.Hour)) {
		t.Errorf("event 2 at %v, want start+1h", got.At)
	}
	if fmt.Sprint(handles) != "[alice bob carol]" {
		t.Errorf("handles = %v", handles)
	}
}

func TestParseContactTraceJSONL(t *testing.T) {
	input := `{"node":"n1","peer":"n2","op":"up","at":60}
{"node":"n1","peer":"n2","op":"down","at":"2017-04-03T00:05:00Z"}
`
	events, handles, err := ParseContactTrace(strings.NewReader(input), start)
	if err != nil {
		t.Fatalf("ParseContactTrace: %v", err)
	}
	if len(events) != 2 || len(handles) != 2 {
		t.Fatalf("events/handles = %d/%d, want 2/2", len(events), len(handles))
	}
	if !events[1].At.Equal(start.Add(5 * time.Minute)) {
		t.Errorf("event 1 at %v", events[1].At)
	}
}

func TestParseContactTraceRejects(t *testing.T) {
	for name, input := range map[string]string{
		"empty":         "",
		"comments-only": "# nothing\n",
		"bad-op":        "a,b,sideways,10\n",
		"bad-time":      "a,b,up,notatime\n",
		"self-link":     "a,a,up,10\n",
		"short-row":     "a,b,up\n",
		"bad-json":      `{"node":"a","peer":"b","op":"up"}` + "\n",
		"negative-time": "a,b,up,-5\n",
	} {
		if _, _, err := ParseContactTrace(strings.NewReader(input), start); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestContactTraceSortsUnorderedInput: real encounter dumps are often
// grouped by pair, not by time; the parser must deliver chronological
// order.
func TestContactTraceSortsUnorderedInput(t *testing.T) {
	input := "a,b,up,500\na,b,down,600\nb,c,up,100\nb,c,down,200\n"
	events, _, err := ParseContactTrace(strings.NewReader(input), start)
	if err != nil {
		t.Fatalf("ParseContactTrace: %v", err)
	}
	for i := 1; i < len(events); i++ {
		if events[i].At.Before(events[i-1].At) {
			t.Fatalf("events out of order at %d", i)
		}
	}
}
