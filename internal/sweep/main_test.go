package sweep_test

import (
	"testing"

	"choreo/internal/leakcheck"
)

// TestMain fails the package if a test leaves goroutines behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
