package harness

import "fmt"

// The NCSL of each enhancement is that of its Faithful protocol files,
// the code the paper's system had: the snapshot walks and the Scalable
// suite's gossip (membership/epidemic.go) are this repository's own.
// TestTable2NCSL recounts each constant from the source tree.
const (
	membershipNCSL = 472 // membership/membership.go + ring.go
	qmonNCSL       = 94  // qmon/qmon.go
	fmeNCSL        = 185 // fme/fme.go
)

// Table2 reproduces the paper's Table 2: the implementation effort of
// each availability enhancement, in non-commented source lines (NCSL),
// against the unavailability reduction it buys over base COOP.
func (fg *Figures) Table2() (Table, error) {
	t := Table{
		Name:   "table2",
		Title:  "Implementation effort vs unavailability reduction",
		Header: []string{"enhancement", "NCSL", "unavailability reduction"},
	}
	if err := fg.eng.prewarmCampaigns(fg.Opts, fg.Sched, VCOOP, VMEM, VMQ, VFME); err != nil {
		return t, err
	}
	coop, err := fg.measured(VCOOP, fg.Opts)
	if err != nil {
		return t, err
	}
	reduction := func(v Version) (string, error) {
		r, err := fg.measured(v, fg.Opts)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%.0f%%", 100*(1-r.Unavailability/coop.Unavailability)), nil
	}

	memRed, err := reduction(VMEM)
	if err != nil {
		return t, err
	}
	mqRed, err := reduction(VMQ)
	if err != nil {
		return t, err
	}
	fmeRed, err := reduction(VFME)
	if err != nil {
		return t, err
	}
	t.Rows = [][]string{
		{"Membership", fmt.Sprint(membershipNCSL), memRed},
		{"Queue Monitoring + Membership", fmt.Sprint(membershipNCSL + qmonNCSL), mqRed},
		{"Queue Monitoring + Membership + FME", fmt.Sprint(membershipNCSL + qmonNCSL + fmeNCSL), fmeRed},
	}
	t.Notes = append(t.Notes,
		"NCSL counted over the Faithful protocol files (membership.go + ring.go, qmon.go, fme.go; comments and blanks excluded), not the snapshot walks or the Scalable suite's gossip",
		"paper: 1638 NCSL bought a 94% reduction — an 11% change to the code base")
	return t, nil
}
