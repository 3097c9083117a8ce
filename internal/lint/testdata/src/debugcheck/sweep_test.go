package debugcheck

func TestSweepArmed() {
	DebugVerifyShadows = true
	defer func() { DebugVerifyShadows = false }()
	for range propertyConfigs() {
	}
}

func TestSweepOtherGlobal() { // want `TestSweepOtherGlobal sweeps propertyConfigs without arming DebugVerifyShadows`
	traceSweeps = true
	defer func() { traceSweeps = false }()
	for range propertyConfigs() {
	}
}

func TestSweepUnarmed() { // want `TestSweepUnarmed sweeps propertyConfigs without arming`
	for range propertyConfigs() {
	}
}

//batchlint:allow debugcheck -- fixture: TestSweepArmed runs this matrix with the shadow check armed
func TestSweepCovered() {
	for range propertyConfigs() {
	}
}

func TestUnrelated() {
	_ = 1 + 2
}
