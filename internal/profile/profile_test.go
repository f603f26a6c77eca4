package profile

import (
	"math"
	"testing"
	"testing/quick"

	"choreo/internal/units"
)

func TestTrafficMatrixBasics(t *testing.T) {
	m := NewTrafficMatrix(3)
	if m.Tasks() != 3 {
		t.Fatalf("Tasks = %d", m.Tasks())
	}
	if err := m.Set(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(0, 1, 50); err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 1); got != 150 {
		t.Errorf("At(0,1) = %d, want 150", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("At(1,0) = %d, want 0", got)
	}
	if got := m.Total(); got != 150 {
		t.Errorf("Total = %d", got)
	}
}

func TestTrafficMatrixBounds(t *testing.T) {
	m := NewTrafficMatrix(2)
	if err := m.Set(2, 0, 1); err == nil {
		t.Error("out-of-range Set should fail")
	}
	if err := m.Add(0, -1, 1); err == nil {
		t.Error("negative index should fail")
	}
	if err := m.Set(1, 1, 5); err == nil {
		t.Error("self transfer should fail")
	}
	if err := m.Set(1, 1, 0); err != nil {
		t.Errorf("zero self transfer should be a no-op, got %v", err)
	}
	if got := m.At(5, 5); got != 0 {
		t.Errorf("out-of-range At = %d, want 0", got)
	}
}

func TestTransfersOrdering(t *testing.T) {
	m := NewTrafficMatrix(4)
	_ = m.Set(0, 1, 100)
	_ = m.Set(1, 2, 300)
	_ = m.Set(2, 3, 200)
	_ = m.Set(3, 0, 300) // tie with (1,2): ordered by (from,to)
	tr := m.Transfers()
	if len(tr) != 4 {
		t.Fatalf("got %d transfers", len(tr))
	}
	want := []Transfer{
		{1, 2, 300}, {3, 0, 300}, {2, 3, 200}, {0, 1, 100},
	}
	for i, w := range want {
		if tr[i] != w {
			t.Errorf("transfer %d = %+v, want %+v", i, tr[i], w)
		}
	}
}

func TestApplicationValidate(t *testing.T) {
	app := &Application{Name: "a", CPU: []float64{1, 1}, TM: NewTrafficMatrix(2)}
	if err := app.Validate(); err != nil {
		t.Errorf("valid app rejected: %v", err)
	}
	bad := &Application{Name: "b", CPU: []float64{1}, TM: NewTrafficMatrix(2)}
	if err := bad.Validate(); err == nil {
		t.Error("CPU length mismatch should fail")
	}
	bad2 := &Application{Name: "c", CPU: []float64{1, 0}, TM: NewTrafficMatrix(2)}
	if err := bad2.Validate(); err == nil {
		t.Error("zero CPU demand should fail")
	}
	bad3 := &Application{Name: "d", CPU: nil, TM: nil}
	if err := bad3.Validate(); err == nil {
		t.Error("nil TM should fail")
	}
}

func TestCombine(t *testing.T) {
	a := &Application{Name: "a", CPU: []float64{1, 2}, TM: NewTrafficMatrix(2)}
	_ = a.TM.Set(0, 1, 100)
	b := &Application{Name: "b", CPU: []float64{0.5, 1, 1.5}, TM: NewTrafficMatrix(3)}
	_ = b.TM.Set(2, 0, 50)
	combined, offsets, err := Combine([]*Application{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if combined.Tasks() != 5 {
		t.Fatalf("combined has %d tasks", combined.Tasks())
	}
	if offsets[0] != 0 || offsets[1] != 2 {
		t.Errorf("offsets = %v", offsets)
	}
	if combined.TM.At(0, 1) != 100 {
		t.Error("app a block missing")
	}
	if combined.TM.At(4, 2) != 50 {
		t.Error("app b block misplaced")
	}
	// No cross-application traffic.
	if combined.TM.At(1, 2) != 0 || combined.TM.At(0, 4) != 0 {
		t.Error("cross-application traffic appeared")
	}
	if math.Abs(combined.CPU[2]-0.5) > 1e-12 {
		t.Errorf("CPU concat wrong: %v", combined.CPU)
	}
	if err := combined.Validate(); err != nil {
		t.Errorf("combined app invalid: %v", err)
	}
}

func TestCombineRejectsInvalid(t *testing.T) {
	bad := &Application{Name: "x", CPU: []float64{1}, TM: NewTrafficMatrix(2)}
	if _, _, err := Combine([]*Application{bad}); err == nil {
		t.Error("combine should propagate validation errors")
	}
}

// Property: Transfers is sorted descending and conserves total bytes.
func TestTransfersProperty(t *testing.T) {
	f := func(entries []uint32) bool {
		n := 6
		m := NewTrafficMatrix(n)
		var want units.ByteSize
		for k, e := range entries {
			i := k % n
			j := (k + 1 + int(e)%(n-1)) % n
			if i == j {
				continue
			}
			b := units.ByteSize(e % 10000)
			_ = m.Add(i, j, b)
			want += b
		}
		var got units.ByteSize
		prev := units.ByteSize(math.MaxInt64)
		for _, tr := range m.Transfers() {
			if tr.Bytes > prev {
				return false
			}
			prev = tr.Bytes
			got += tr.Bytes
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPrevHourPredictor(t *testing.T) {
	s := HourlySeries{10, 20, 30}
	p := PrevHour{}
	if v, ok := p.Predict(s, 1); !ok || v != 10 {
		t.Errorf("Predict(1) = %v,%v", v, ok)
	}
	if _, ok := p.Predict(s, 0); ok {
		t.Error("hour 0 has no history")
	}
	if _, ok := p.Predict(s, 3); ok {
		t.Error("hour 3 out of range")
	}
}

func TestTimeOfDayPredictor(t *testing.T) {
	// Two days of 4-hour "days".
	s := HourlySeries{10, 20, 30, 40, 14, 24, 34, 44}
	p := TimeOfDay{HoursPerDay: 4}
	if v, ok := p.Predict(s, 4); !ok || v != 10 {
		t.Errorf("Predict(4) = %v,%v want 10", v, ok)
	}
	// Hour 8 would average hours 0 and 4 = 12, but 8 is out of range.
	if _, ok := p.Predict(s, 8); ok {
		t.Error("out of range should fail")
	}
	if v, ok := p.Predict(s, 7); !ok || v != 40 {
		t.Errorf("Predict(7) = %v,%v want 40", v, ok)
	}
	if _, ok := p.Predict(s, 2); ok {
		t.Error("no prior day should fail")
	}
}

func TestEvaluatePredictors(t *testing.T) {
	// A predictable diurnal series: the paper's finding is that both
	// predictors do well on cloud traffic.
	var s HourlySeries
	for day := 0; day < 21; day++ { // three weeks, like the HP dataset
		for h := 0; h < 24; h++ {
			s = append(s, 1000+500*math.Sin(2*math.Pi*float64(h)/24))
		}
	}
	for _, p := range []Predictor{PrevHour{}, TimeOfDay{}} {
		ev, err := Evaluate(p, s)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if ev.Errors.Median > 0.2 {
			t.Errorf("%s median error = %v on a predictable series", p.Name(), ev.Errors.Median)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate(PrevHour{}, HourlySeries{1}); err == nil {
		t.Error("short series should fail")
	}
	if _, err := Evaluate(PrevHour{}, HourlySeries{0, 0, 0}); err == nil {
		t.Error("all-zero series should fail")
	}
}
