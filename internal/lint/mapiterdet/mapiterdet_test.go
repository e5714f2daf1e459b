package mapiterdet_test

import (
	"testing"

	"sqalpel/internal/lint/analysistest"
	"sqalpel/internal/lint/mapiterdet"
)

func TestMapIterDet(t *testing.T) {
	analysistest.Run(t, "testdata", mapiterdet.Analyzer, "internal/plan", "internal/core", "other/util")
}
