package sqlsemroute_test

import (
	"testing"

	"sqalpel/internal/lint/analysistest"
	"sqalpel/internal/lint/sqlsemroute"
)

func TestSQLSemRoute(t *testing.T) {
	analysistest.Run(t, "testdata", sqlsemroute.Analyzer, "internal/engine", "internal/vexec", "internal/sqlsem")
}
