package keysort_test

import (
	"testing"

	"cleandb/internal/lint/analysistest"
	"cleandb/internal/lint/keysort"
)

func TestKeySort(t *testing.T) {
	analysistest.Run(t, "testdata", keysort.Analyzer, "keysortfixture")
}
