package xquec

import "strings"

// ResultXML drains r through WriteXML into one string, one item per
// line — the test suites' shorthand for comparing whole results.
func ResultXML(r *Results) (string, error) {
	var sb strings.Builder
	if _, err := r.WriteXML(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}
